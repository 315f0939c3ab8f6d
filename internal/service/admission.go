package service

import (
	"encoding/json"
	"net/http"
	"time"
)

// This file is the server's overload-control surface: the per-tenant
// token bucket behind Options.TenantRPS, the /v1/health readiness
// report, and the drain protocol `gist -serve` runs on SIGINT/SIGTERM.
//
// Shed priority, cheapest work admitted first:
//
//  1. Recurrence folds (O(1) cluster updates) are always admitted once
//     past the tenant's rate limit — dedup is the cheapest way to absorb
//     a recurring failure, so shedding it would be self-defeating.
//  2. Novel-signature launches queue behind the MaxInflight cap, up to
//     LaunchBudget parked launches.
//  3. Beyond the budget, novel submits are shed with 429 + Retry-After;
//     the shed probe is read-only, so the signature stays novel for the
//     retry that finally lands.

// tokenBucket is a classic token bucket: `rate` tokens/sec accrue up to
// `burst`, one submit spends one token. All methods are called under
// the server mutex with the server's injected clock, so refill math is
// deterministic in tests.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time // last refill instant; zero before first take
}

// newTokenBucket returns a full bucket. burst is Options.TenantBurst,
// which withDefaults has already derived from the rate when unset.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

// take spends one token if available. On refusal it returns how long
// until the next token accrues — the Retry-After hint, which makes the
// 429 actionable instead of inviting a blind retry storm.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate // seconds until one whole token
	return false, time.Duration(need * float64(time.Second))
}

// ---- health -----------------------------------------------------------

// readiness snapshots the server's readiness: admission-queue depths, shed
// counters, and the FleetHealth aggregate across finished campaigns.
func (s *Server) readiness() HealthResponse {
	s.mu.Lock()
	queued := 0
	for _, t := range s.tenants {
		queued += len(t.queue)
	}
	h := HealthResponse{
		Ready: !s.draining &&
			(s.slotCh == nil || s.launchQ < s.opts.LaunchBudget),
		Draining:          s.draining,
		InflightCampaigns: s.inflight,
		QueuedLaunches:    s.launchQ,
		MaxQueuedLaunches: s.maxLaunchQ,
		QueuedTasks:       queued,
		DoneTasks:         len(s.doneTasks),
		Fleet:             s.health,
	}
	s.mu.Unlock()
	h.Counters = s.metrics.read()
	return h
}

// handleHealth serves the readiness report. Unlike the POST-only task
// endpoints this one answers GET too (load balancers and curl probe
// it), and answers 503 while not ready so a balancer steers submits
// away without parsing the body.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.readiness()
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode health: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(data)
}

// ---- drain ------------------------------------------------------------

// BeginDrain stops admitting new submits (they shed with 429 so the
// client's Retry-After backoff steers them to a peer) and asks every
// live campaign supervisor to drain at its next iteration boundary,
// flushing a durable checkpoint. In-flight agent uploads keep landing —
// the caller closes the listener only after DrainWait — so no live
// result is dropped. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	sups := make([]func(), 0, len(s.sups))
	for sup := range s.sups {
		sups = append(sups, sup.RequestDrain)
	}
	s.mu.Unlock()
	for _, req := range sups {
		req()
	}
	s.logf("drain: admissions stopped, %d campaigns asked to checkpoint", len(sups))
}

// DrainWait blocks until every campaign goroutine has unwound (each
// either finished or checkpointed-and-suspended) or the timeout
// elapses. It returns how many campaigns drained to a checkpoint — the
// count that makes the CLI's exit-3 "resumable work left behind"
// contract decidable — and whether the server went fully idle.
func (s *Server) DrainWait(timeout time.Duration) (drained int, idle bool) {
	done := make(chan struct{})
	go func() {
		s.campWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		idle = true
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for _, t := range s.tenants {
		for _, cs := range t.campaigns {
			if cs.state == StateDrained {
				drained++
			}
		}
	}
	s.mu.Unlock()
	return drained, idle
}
