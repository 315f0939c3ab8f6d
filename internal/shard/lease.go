package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrLeaseLost reports that a worker no longer owns a campaign: its
// claim expired and another worker's claim now wins. The holder must
// stop driving the campaign; the new owner resumes it from the last
// durable checkpoint generation.
var ErrLeaseLost = errors.New("shard: lease lost")

// Lease is one worker's ownership claim over one campaign.
type Lease struct {
	Campaign string `json:"campaign"`
	Worker   string `json:"worker"`
	// Gen is the claim's burned generation number (see LeaseTable).
	Gen uint64 `json:"gen"`
	// ExpiresUnixNS is when the claim lapses unless renewed.
	ExpiresUnixNS int64 `json:"expires_unix_ns"`
}

func (l *Lease) expired(now time.Time) bool { return l.ExpiresUnixNS <= now.UnixNano() }

// LeaseTable is one worker process's view of the fleet's ownership
// claims, stored as individual files on the shared backend.
//
// The protocol makes acquisition atomic under racing workers without
// any shared lock — it is Lamport's bakery algorithm over backend
// files:
//
//   - Every claim is its own file, named <campaign>.g<gen>.<worker>.lease,
//     written via temp-file + atomic rename. Distinct workers write
//     distinct files, so concurrent claims never overwrite each other —
//     a race leaves both claims visible and every observer sees the
//     same set.
//
//   - Generation numbers follow the checkpoint store's burned-numbering
//     rule: a claimant draws max(observed)+1, and a number once drawn
//     is never reused by this table even if the claim loses and is
//     withdrawn. The winner among unexpired claims is the lowest
//     generation (the earliest claim), ties broken by the lowest
//     worker id — a pure function of the visible claim set.
//
//   - Before drawing, a claimant publishes an intent marker (the bakery
//     "choosing" flag) and removes it after its claim file is in place.
//     The decision scan waits until no foreign unexpired intent is
//     visible, which guarantees that any rival who drew concurrently
//     (and might hold an equal generation) has its claim on the backend
//     by decision time. Both racers therefore see the same claim set
//     and the deterministic winner rule picks exactly one of them; the
//     loser observes the winner's lease. Intents expire with the lease
//     TTL, so a claimant that dies mid-claim stalls rivals for at most
//     one TTL.
//
// Renewal rewrites only the holder's own file (same generation, later
// expiry) and fails with ErrLeaseLost the moment the holder's claim has
// expired or lost: a worker resurrected after a long stall cannot renew
// its stale low-generation claim back to life and steal the campaign
// from the worker that took over. The residual split-brain window — old
// owner finishing its current round while the new owner resumes — is
// harmless: both drive the same deterministic campaign and write
// byte-identical checkpoints.
type LeaseTable struct {
	b       store.Backend
	dir     string
	ttl     time.Duration
	noFsync bool
	now     func() time.Time

	mu sync.Mutex
	// drawn is the burned-generation floor per campaign: the next claim
	// this table writes uses at least this number, even if the file that
	// burned a lower one has been withdrawn.
	drawn map[string]uint64
}

// NewLeaseTable opens the fleet's lease directory under root on b.
func NewLeaseTable(b store.Backend, root string, ttl time.Duration, noFsync bool) (*LeaseTable, error) {
	if b == nil {
		b = store.DirBackend{}
	}
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	dir := LeaseDir(root)
	if err := b.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("shard: lease dir: %w", err)
	}
	return &LeaseTable{
		b: b, dir: dir, ttl: ttl, noFsync: noFsync,
		now:   time.Now,
		drawn: map[string]uint64{},
	}, nil
}

// winner applies the deterministic ownership rule to a claim set: the
// unexpired claim with the lowest generation wins, ties broken by the
// lowest worker id. Nil means the campaign is unowned.
func winner(claims []*Lease, now time.Time) *Lease {
	var w *Lease
	for _, c := range claims {
		if c.expired(now) {
			continue
		}
		if w == nil || c.Gen < w.Gen || (c.Gen == w.Gen && c.Worker < w.Worker) {
			w = c
		}
	}
	return w
}

// Claim attempts to take ownership of a campaign for worker. It returns
// (true, own lease) when the worker owns the campaign afterwards and
// (false, winning lease) when another worker does. Exactly one of two
// racing claimants wins, and the loser's returned lease names the
// winner.
func (lt *LeaseTable) Claim(campaign, worker string) (bool, *Lease, error) {
	// Bakery "choosing" flag: rivals deciding concurrently must wait for
	// this claimant's number to be on the backend before they decide.
	if err := lt.writeIntent(campaign, worker); err != nil {
		return false, nil, err
	}
	claims, maxGen, err := lt.scan(campaign)
	if err != nil {
		lt.removeIntent(campaign, worker)
		return false, nil, err
	}
	now := lt.now()
	if w := winner(claims, now); w != nil {
		lt.removeIntent(campaign, worker)
		if w.Worker != worker {
			return false, w, nil
		}
		// Already the owner (a re-claim): refresh the existing lease
		// instead of burning a new generation.
		w.ExpiresUnixNS = now.Add(lt.ttl).UnixNano()
		if err := lt.write(w); err != nil {
			return false, nil, err
		}
		return true, w, nil
	}
	self := &Lease{
		Campaign:      campaign,
		Worker:        worker,
		Gen:           lt.draw(campaign, maxGen),
		ExpiresUnixNS: now.Add(lt.ttl).UnixNano(),
	}
	if err := lt.write(self); err != nil {
		lt.removeIntent(campaign, worker)
		return false, nil, err
	}
	lt.removeIntent(campaign, worker)

	// Settle: wait out every foreign claimant still between intent and
	// claim, then decide from the (now complete) claim set. The winner
	// rule is a pure function of that set, so every racer that settles
	// reaches the same verdict.
	if err := lt.settle(campaign, worker); err != nil {
		lt.remove(self)
		return false, nil, err
	}
	claims, _, err = lt.scan(campaign)
	if err != nil {
		return false, nil, err
	}
	w := winner(claims, now)
	if w == nil {
		return false, nil, fmt.Errorf("shard: claim %s: own unexpired claim missing after write", campaign)
	}
	if w.Worker != worker || w.Gen != self.Gen {
		// Lost the race. Withdraw the claim file — its generation number
		// stays burned in drawn, so this table can never reissue it.
		lt.remove(self)
		return false, w, nil
	}
	// Won. Expired predecessors can never win again (renewal refuses
	// expired claims); withdraw them so the table stays small.
	for _, c := range claims {
		if c.expired(now) {
			lt.remove(c)
		}
	}
	return true, self, nil
}

// Renew extends the worker's existing claim. It fails with ErrLeaseLost
// when the claim has expired or another worker's claim now wins — the
// caller must retire the campaign locally and let the new owner drive.
func (lt *LeaseTable) Renew(campaign, worker string) (*Lease, error) {
	claims, _, err := lt.scan(campaign)
	if err != nil {
		return nil, err
	}
	now := lt.now()
	var self *Lease
	for _, c := range claims {
		if c.Worker == worker && (self == nil || c.Gen > self.Gen) {
			self = c
		}
	}
	// An expired claim cannot be renewed — only re-claimed, which draws
	// a fresh (higher, losing) generation. This is what keeps a stalled
	// owner from resurrecting its old low-generation claim after a
	// takeover.
	if self == nil || self.expired(now) {
		return nil, ErrLeaseLost
	}
	if w := winner(claims, now); w == nil || w.Worker != worker {
		return nil, ErrLeaseLost
	}
	self.ExpiresUnixNS = now.Add(lt.ttl).UnixNano()
	if err := lt.write(self); err != nil {
		return nil, err
	}
	return self, nil
}

// Release withdraws the worker's claims on a campaign (diagnosis done).
func (lt *LeaseTable) Release(campaign, worker string) {
	claims, _, err := lt.scan(campaign)
	if err != nil {
		return
	}
	for _, c := range claims {
		if c.Worker == worker {
			lt.remove(c)
		}
	}
}

// Owner returns the campaign's current owner, or nil when it is
// unowned (no claims, or all claims expired).
func (lt *LeaseTable) Owner(campaign string) (*Lease, error) {
	claims, _, err := lt.scan(campaign)
	if err != nil {
		return nil, err
	}
	return winner(claims, lt.now()), nil
}

// draw burns a generation number for campaign: one past both the
// highest number visible on the backend and the highest this table has
// ever issued.
func (lt *LeaseTable) draw(campaign string, maxSeen uint64) uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	gen := maxSeen + 1
	if g := lt.drawn[campaign]; g > gen {
		gen = g
	}
	lt.drawn[campaign] = gen + 1
	return gen
}

// settle blocks until no foreign unexpired intent for campaign is
// visible. A rival past its intent has its claim file in place; a rival
// that died mid-claim ages out with its intent's expiry.
func (lt *LeaseTable) settle(campaign, worker string) error {
	for {
		names, err := lt.b.ListFiles(lt.dir)
		if err != nil {
			return fmt.Errorf("shard: lease settle: %w", err)
		}
		busy := false
		now := lt.now()
		for _, base := range names {
			if !strings.HasPrefix(base, campaign+".i.") || !strings.HasSuffix(base, ".intent") {
				continue
			}
			var in Lease
			if err := readRecord(lt.b, filepath.Join(lt.dir, base), &in); err != nil || in.Campaign != campaign {
				continue // withdrawn between list and read, or torn
			}
			if in.Worker != worker && !in.expired(now) {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (lt *LeaseTable) intentPath(campaign, worker string) string {
	return filepath.Join(lt.dir, fmt.Sprintf("%s.i.%s.intent", campaign, worker))
}

// writeIntent publishes the bakery choosing flag; it expires with the
// lease TTL so a claimant that dies here cannot stall rivals forever.
// The marker is never synced: it only matters while its writer lives.
func (lt *LeaseTable) writeIntent(campaign, worker string) error {
	in := Lease{Campaign: campaign, Worker: worker, ExpiresUnixNS: lt.now().Add(lt.ttl).UnixNano()}
	return writeRecord(lt.b, lt.intentPath(campaign, worker), &in, true)
}

func (lt *LeaseTable) removeIntent(campaign, worker string) {
	lt.b.Remove(lt.intentPath(campaign, worker))
}

// scan reads every claim for campaign, returning the decoded claims and
// the highest generation number observed in filenames — burned whether
// or not the payload decodes, so a torn claim still consumes its
// number.
func (lt *LeaseTable) scan(campaign string) ([]*Lease, uint64, error) {
	names, err := lt.b.ListFiles(lt.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: lease scan: %w", err)
	}
	prefix := campaign + ".g"
	var claims []*Lease
	var maxGen uint64
	for _, base := range names {
		if !strings.HasPrefix(base, prefix) || !strings.HasSuffix(base, ".lease") {
			continue
		}
		rest := strings.TrimSuffix(base[len(prefix):], ".lease")
		dot := strings.IndexByte(rest, '.')
		if dot <= 0 {
			continue
		}
		gen, err := strconv.ParseUint(rest[:dot], 10, 64)
		if err != nil {
			continue
		}
		if gen > maxGen {
			maxGen = gen
		}
		var l Lease
		if err := readRecord(lt.b, filepath.Join(lt.dir, base), &l); err != nil {
			// Withdrawn by a racing worker between list and read, or a
			// torn claim: its number is burned above, its record void.
			continue
		}
		// The campaign name prefix can collide across campaigns whose
		// names embed ".g"; the payload is the truth.
		if l.Campaign != campaign {
			continue
		}
		claims = append(claims, &l)
	}
	return claims, maxGen, nil
}

// path is the claim's backend location; its name embeds (campaign,
// generation, worker) so distinct claimants never share a file.
func (lt *LeaseTable) path(l *Lease) string {
	return filepath.Join(lt.dir, fmt.Sprintf("%s.g%d.%s.lease", l.Campaign, l.Gen, l.Worker))
}

// write publishes a claim atomically: CRC-framed payload to a temp file
// (unique per worker), then rename into place.
func (lt *LeaseTable) write(l *Lease) error {
	return writeRecord(lt.b, lt.path(l), l, lt.noFsync)
}

// remove withdraws a claim file; a concurrent withdrawal is fine.
func (lt *LeaseTable) remove(l *Lease) { lt.b.Remove(lt.path(l)) }
