package service

import (
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzUploadExactlyOnce drives one server on a fake clock through the
// operations the fleet and the reaper perform on the task table, two
// bytes per operation (what, then which): issue a task; lease one; upload
// a task with its own spec, another run's spec or a crash marker, or
// upload an ID above the highest issued one; repeat the last upload; and
// advance the clock before a reaper sweep. After every operation the
// task table holds exactly the unsettled tasks, Uploads counts the tasks
// admitted by upload, and no task is admitted twice; every upload reply
// follows the rule handleUpload states, judged from the table before it.
func FuzzUploadExactlyOnce(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 6, 0, 2, 0})                         // issue, upload, repeat, upload again
	f.Add([]byte{0, 0, 1, 0, 3, 0, 4, 0, 6, 0, 2, 0})             // lease; other run, crash, repeats
	f.Add([]byte{0, 0, 0, 1, 1, 0, 7, 3, 7, 3, 7, 7, 2, 0, 2, 1}) // leases expire, tasks written off
	f.Add([]byte{0, 0, 1, 2, 7, 1, 1, 0, 2, 0, 2, 0, 5, 3, 6, 0}) // hedged, both copies upload; unissued ID
	const (
		lease = time.Hour // the reaper's own ticker never fires during a run
		ops   = 8
	)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		clk := newFakeClock()
		s := NewServer(Options{LeaseTTL: lease, HedgeAfter: lease / 2, Now: clk.Now})
		defer s.Close()
		var (
			issued   []*task
			admitted = map[uint64]bool{}
			last     *UploadRequest
		)
		upload := func(req *UploadRequest) {
			s.mu.Lock()
			tk, mark := s.tasks[req.TaskID], s.nextTask
			s.mu.Unlock()
			want := UploadResponse{Accepted: true}
			switch {
			case tk == nil:
				want = UploadResponse{Accepted: req.TaskID <= mark, Duplicate: true}
			case !req.Crashed && (req.Trace.Spec.Seed != tk.spec.Seed || req.Trace.Spec.EndpointID != tk.spec.EndpointID):
				want = UploadResponse{Duplicate: true}
			}
			resp, err := s.handleUpload(req)
			if err != nil || *resp != want {
				t.Fatalf("upload of task %d (crashed %v, issued up to %d, live %v) = %+v, %v; want %+v",
					req.TaskID, req.Crashed, mark, tk != nil, resp, err, want)
			}
			if resp.Accepted && !resp.Duplicate {
				if admitted[req.TaskID] {
					t.Fatalf("task %d admitted twice", req.TaskID)
				}
				admitted[req.TaskID] = true
			}
			last = req
		}
		for i := 0; i+1 < len(prog); i += 2 {
			arg := int(prog[i+1])
			var tk *task
			if len(issued) > 0 {
				tk = issued[arg%len(issued)]
			}
			switch prog[i] % ops {
			case 0:
				issued = append(issued, enqueueTask(s, "acme", "pbzip2"))
			case 1:
				s.mu.Lock()
				queued := false
				for _, q := range s.tenant("acme").queue {
					queued = queued || !q.done
				}
				s.mu.Unlock()
				if queued {
					if _, err := s.handlePoll(&PollRequest{Tenant: "acme", Agent: "a" + string(rune('0'+arg%3)), WaitMs: 1}); err != nil {
						t.Fatal(err)
					}
				}
			case 2, 3:
				if tk != nil {
					spec := tk.spec
					if prog[i]%ops == 3 {
						spec.Seed++
					}
					upload(&UploadRequest{Tenant: "acme", Agent: "a0", TaskID: tk.id, Trace: &WireTrace{Spec: spec}})
				}
			case 4:
				if tk != nil {
					upload(&UploadRequest{Tenant: "acme", Agent: "a0", TaskID: tk.id, Crashed: true})
				}
			case 5:
				s.mu.Lock()
				id := s.nextTask + 1 + uint64(arg)
				s.mu.Unlock()
				upload(&UploadRequest{Tenant: "acme", Agent: "a0", TaskID: id, Trace: &WireTrace{Spec: core.RunSpec{Seed: 42, EndpointID: 7}}})
			case 6:
				if last != nil {
					upload(last)
				}
			case 7:
				clk.Advance(time.Duration(arg%8) * lease / 2)
				s.reapOnce(clk.Now())
			}

			c, _ := s.Snapshot()
			s.mu.Lock()
			unsettled, stray, miscounted := 0, uint64(0), uint64(0)
			for _, tk := range issued {
				switch {
				case !tk.done:
					unsettled++
					if s.tasks[tk.id] != tk {
						stray = tk.id
					}
				case admitted[tk.id] == tk.lost:
					miscounted = tk.id
				}
			}
			held := len(s.tasks)
			s.mu.Unlock()
			if stray != 0 {
				t.Fatalf("unsettled task %d is not in the table", stray)
			}
			if miscounted != 0 {
				t.Fatalf("task %d settled, but admitted by upload and written off are not one or the other", miscounted)
			}
			if held != unsettled {
				t.Fatalf("task table holds %d tasks, %d are unsettled", held, unsettled)
			}
			if c.Uploads != int64(len(admitted)) {
				t.Fatalf("Uploads = %d, %d tasks admitted by upload", c.Uploads, len(admitted))
			}
		}
	})
}
