package apiserver

import (
	"testing"
	"time"

	"u1/internal/faults"
	"u1/internal/metrics"
	"u1/internal/protocol"
)

// downRegions is a two-region topology whose every volume is owned by a
// down region.
type downRegions struct{}

func (downRegions) WriteUnavailable(protocol.VolumeID) bool { return true }
func (downRegions) NumRegions() int                         { return 2 }

// pingAlwaysFails is a fault plan that fails every Ping.
func pingAlwaysFails() *faults.Plan {
	return &faults.Plan{Seed: 7, Rules: map[protocol.Op]faults.Rule{
		protocol.OpPing: {Fraction: 1, Status: protocol.StatusUnavailable},
	}}
}

// TestGateVisibility walks one request down each path through dispatch —
// success, handler error, every gate, the unknown-op default — and pins what
// it leaves behind: the wire status and correlation ID, whether a trace
// event went out, the per-op outcome counters, whether the latency
// histogram took a sample, the gate's own counter, and the per-process op
// count. Refused-before-admission (no session) leaves nothing; every other
// refusal is visible as an error but never as a latency sample.
func TestGateVisibility(t *testing.T) {
	type row struct {
		name  string
		cfg   Config
		deps  Deps
		op    protocol.Op
		setup func(f *fixture, sess *Session)
		run   func(f *fixture, sess *Session) *protocol.Response

		status  protocol.Status
		id      uint64
		event   bool
		count   uint64 // api.op.<op>.count
		errors  uint64 // api.op.<op>.errors
		samples uint64 // api.op.<op>.seconds count
		counter string // the gate's own counter, if any
		bumped  uint64 // its expected increment
		procOps uint64
	}
	handle := func(req *protocol.Request) func(*fixture, *Session) *protocol.Response {
		return func(f *fixture, sess *Session) *protocol.Response {
			resp, _ := f.srv.Handle(sess, req, t0)
			return resp
		}
	}
	withCancel := func(req *protocol.Request, deadline time.Time, aborted func() bool) func(*fixture, *Session) *protocol.Response {
		return func(f *fixture, sess *Session) *protocol.Response {
			resp, _ := f.srv.HandleWithCancel(sess, req, t0, deadline, aborted)
			return resp
		}
	}
	unknown := protocol.Op(200)
	rows := []row{
		{
			name: "success", op: protocol.OpPing,
			run:    handle(&protocol.Request{ID: 9, Op: protocol.OpPing}),
			status: protocol.StatusOK, id: 9, event: true, count: 1, samples: 1, procOps: 1,
		},
		{
			name: "handler error", op: protocol.OpGetContent,
			run:    handle(&protocol.Request{ID: 9, Op: protocol.OpGetContent, Node: 99}),
			status: protocol.StatusNotFound, id: 9, event: true, count: 1, errors: 1, samples: 1, procOps: 1,
		},
		{
			name: "injected fault", op: protocol.OpPing, cfg: Config{Faults: pingAlwaysFails()},
			run:    handle(&protocol.Request{ID: 9, Op: protocol.OpPing}),
			status: protocol.StatusUnavailable, id: 9, event: true, count: 1, errors: 1, procOps: 1,
			counter: metrics.FaultsPrefix + "injected", bumped: 1,
		},
		{
			name: "write to a down region", op: protocol.OpMakeFile, deps: Deps{Regions: downRegions{}},
			run:    handle(&protocol.Request{ID: 9, Op: protocol.OpMakeFile, Volume: 1, Name: "a.txt"}),
			status: protocol.StatusUnavailable, id: 9, event: true, count: 1, errors: 1, procOps: 1,
			counter: "api.region.refused", bumped: 1,
		},
		{
			name: "no session", op: protocol.OpPing, cfg: Config{Faults: pingAlwaysFails()},
			run: func(f *fixture, _ *Session) *protocol.Response {
				resp, _ := f.srv.Handle(nil, &protocol.Request{ID: 9, Op: protocol.OpPing, Attempt: 1}, t0)
				return resp
			},
			status: protocol.StatusAuthFailed, id: 9,
			counter: metrics.FaultsPrefix + "injected",
		},
		{
			// The fixture's own session takes the bucket's one token.
			name: "SSO shed", op: protocol.OpAuthenticate, deps: Deps{SSO: faults.NewSSOAdmission(1e-9, 1)},
			run: func(f *fixture, _ *Session) *protocol.Response {
				token, _ := f.auth.Issue(2)
				_, resp, _ := f.srv.OpenSession(token, nil, t0)
				return resp
			},
			status: protocol.StatusOverloaded, id: 0, event: true, count: 1, errors: 1,
			counter: metrics.FaultsPrefix + "sso_shed", bumped: 1,
		},
		{
			name: "watermark shed", op: protocol.OpGetContent, cfg: Config{AdmitWatermark: 1},
			setup: func(f *fixture, sess *Session) {
				f.srv.Handle(sess, &protocol.Request{Op: protocol.OpGetContent, Node: 99}, t0)
			},
			run:    handle(&protocol.Request{ID: 9, Op: protocol.OpGetContent, Node: 99}),
			status: protocol.StatusOverloaded, id: 9, event: true, count: 1, errors: 1, procOps: 1,
			counter: metrics.FaultsPrefix + "shed", bumped: 1,
		},
		{
			name: "past deadline", op: protocol.OpListVolumes,
			run:    withCancel(&protocol.Request{ID: 9, Op: protocol.OpListVolumes}, t0.Add(-time.Second), nil),
			status: protocol.StatusCancelled, id: 9, event: true, count: 1, errors: 1, procOps: 1,
		},
		{
			name: "aborted probe", op: protocol.OpListVolumes,
			run:    withCancel(&protocol.Request{ID: 9, Op: protocol.OpListVolumes}, time.Time{}, func() bool { return true }),
			status: protocol.StatusCancelled, id: 9, event: true, count: 1, errors: 1, procOps: 1,
		},
		{
			name: "unknown op", op: unknown,
			run:    handle(&protocol.Request{ID: 9, Op: unknown}),
			status: protocol.StatusBadRequest, id: 9, event: true, procOps: 1,
		},
	}
	sum := func(xs []uint64) (n uint64) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f, reg := newMeteredFixture(t, r.cfg, r.deps)
			sess := f.session(t, 1)
			if r.setup != nil {
				r.setup(f, sess)
			}
			var events []Event
			f.srv.AddObserver(func(e Event) { events = append(events, e) })
			before, procBefore := reg.Snapshot(), sum(f.srv.ProcOps())

			resp := r.run(f, sess)

			after := reg.Snapshot()
			delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
			series := metrics.APIOpPrefix + r.op.String()
			if resp.Status != r.status || resp.ID != r.id {
				t.Errorf("response = status %v id %d, want status %v id %d", resp.Status, resp.ID, r.status, r.id)
			}
			if got := len(events) > 0; got != r.event {
				t.Errorf("event emitted = %v, want %v (%+v)", got, r.event, events)
			}
			if got := delta(series + ".count"); got != r.count {
				t.Errorf("%s.count += %d, want %d", series, got, r.count)
			}
			if got := delta(series + ".errors"); got != r.errors {
				t.Errorf("%s.errors += %d, want %d", series, got, r.errors)
			}
			samples := after.Histograms[series+".seconds"].Count - before.Histograms[series+".seconds"].Count
			if samples != r.samples {
				t.Errorf("%s.seconds samples += %d, want %d", series, samples, r.samples)
			}
			if r.counter != "" {
				if got := delta(r.counter); got != r.bumped {
					t.Errorf("%s += %d, want %d", r.counter, got, r.bumped)
				}
			}
			if got := sum(f.srv.ProcOps()) - procBefore; got != r.procOps {
				t.Errorf("ProcOps += %d, want %d", got, r.procOps)
			}
		})
	}
}

// TestSessionGuardRunsFirst pins the guard's place at the head of dispatch:
// a request with no session is refused with StatusAuthFailed before the
// fault injector can see it, so it leaves no trace event, no per-op counts
// and no fault accounting — even under a plan that fails its op every time
// and on a retried attempt.
func TestSessionGuardRunsFirst(t *testing.T) {
	f, reg := newFaultFixture(t, pingAlwaysFails(), 0)
	var events []Event
	f.srv.AddObserver(func(e Event) { events = append(events, e) })

	resp, _ := f.srv.Handle(nil, &protocol.Request{ID: 9, Op: protocol.OpPing, Attempt: 1}, t0)
	if resp.Status != protocol.StatusAuthFailed || resp.ID != 9 {
		t.Errorf("response = status %v id %d, want auth failed id 9", resp.Status, resp.ID)
	}
	if len(events) != 0 {
		t.Errorf("refused request emitted %d event(s): %+v", len(events), events)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"api.op.Ping.count", "api.op.Ping.errors",
		metrics.FaultsPrefix + "injected", metrics.FaultsPrefix + "retried",
	} {
		if got := snap.Counters[name]; got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}
