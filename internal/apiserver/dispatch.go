package apiserver

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/protocol"
)

// OpContext is the request-scoped state dispatch carries from the gates
// through the handler to the bookkeeping: the session, resolved user, virtual
// timestamp, the request itself, the cost accumulator that collects every RPC
// service time and transfer estimate charged to the request, and the
// in-flight trace Event.
//
// Lifecycle: the server takes a context from an internal pool when dispatch
// starts (Handle, OpenSession, CloseSession), initializes every field, runs
// it through dispatch, reads the accumulated cost, and returns it to the
// pool. A context therefore never outlives its request — handlers must not
// retain it (copy Event or individual fields instead).
//
// Handlers talk to dispatch's bookkeeping only through the context: they
// mutate Event to enrich the trace record, charge Cost, queue notifications
// with NotifyVolume/NotifyShare, and set the suppress/skip flags where an
// operation opts out of the uniform bookkeeping.
type OpContext struct {
	Session *Session
	User    protocol.UserID
	Now     time.Time
	Req     *protocol.Request
	Cost    protocol.Cost
	Event   Event

	// Pusher is the client push channel offered during Authenticate; unused
	// by every other operation.
	Pusher Pusher

	// Deadline, when non-zero, is the virtual instant past which the request
	// must not start: dispatch's last gates reject it with ErrCancelled
	// before the handler runs. Zero means no deadline.
	Deadline time.Time
	// Aborted, when non-nil, is probed by dispatch's last gate, just before
	// the handler runs: a true return means the client is gone (the TCP
	// harness flips it when the connection dies) and dispatch drops the work
	// with ErrCancelled instead of executing it.
	Aborted func() bool

	// newSession carries the session created by the Authenticate handler
	// back to OpenSession.
	newSession *Session
	// openSession marks a context built by OpenSession, the only entry
	// point allowed to run Authenticate without a session: a raw Handle
	// call has no way to receive the created *Session, so admitting it
	// would leak an uncloseable session.
	openSession bool

	// hasProc marks Event.Proc as valid for per-process load accounting.
	// Set at context creation when a session exists, and by the Authenticate
	// handler once it has placed the new session on a process.
	hasProc bool
	// suppressEvent opts the request out of the uniform event emission: part
	// streaming never reports as an API event, and an upload that opens a
	// job reports only when its final part lands.
	suppressEvent bool
	// preempted marks a request refused by a gate before its handler ran —
	// injected, region-refused, shed, or cancelled. Preempted
	// requests still count in the per-op outcome counters and trace events
	// (operators must see refused work), but are excluded from the latency
	// histograms: they charged no cost, and zero-duration samples would let
	// load shedding fake a latency win.
	preempted bool
	// skipMetrics opts the request out of per-op metric recording (only the
	// double-close of a session, which must not skew the op counters).
	skipMetrics bool

	// pending holds notifications queued by the handler; dispatch delivers
	// them only after the handler succeeds.
	pending []pendingPush
}

// pendingPush is one queued notification: a volume change or a share event.
type pendingPush struct {
	share  bool
	kind   protocol.PushEvent
	volume protocol.VolumeID
	gen    protocol.Generation
	info   protocol.ShareInfo
}

// NotifyVolume queues a volume-changed push for every watcher of vol.
// Dispatch delivers it (locally and through the broker) after the handler
// returns without error.
func (c *OpContext) NotifyVolume(vol protocol.VolumeID, gen protocol.Generation) {
	c.pending = append(c.pending, pendingPush{volume: vol, gen: gen})
}

// NotifyShare queues a share push for the grantee's sessions everywhere.
func (c *OpContext) NotifyShare(kind protocol.PushEvent, share protocol.ShareInfo) {
	c.pending = append(c.pending, pendingPush{share: true, kind: kind, volume: share.Volume, info: share})
}

// Handler executes one API operation against a request context. On success
// it returns the response (dispatch stamps the correlation ID); on failure it
// returns a nil response and the error, which dispatch converts to the
// uniform wire status — handlers never build error responses themselves.
type Handler func(*OpContext) (*protocol.Response, error)

// opCtxPool recycles request contexts; see the OpContext lifecycle note.
var opCtxPool = sync.Pool{New: func() any { return new(OpContext) }}

// newOpContext initializes a pooled context for one request. sess may be nil
// (pre-auth requests); the session guard rejects such requests unless they
// entered through OpenSession.
func (s *Server) newOpContext(sess *Session, req *protocol.Request, now time.Time) *OpContext {
	c := opCtxPool.Get().(*OpContext)
	pending := c.pending[:0]
	*c = OpContext{Session: sess, Now: now, Req: req, pending: pending}
	c.Event = Event{
		Server: s.cfg.Name,
		Op:     req.Op,
		Volume: req.Volume,
		Node:   req.Node,
		Start:  now,
	}
	if sess != nil {
		c.User = sess.User
		c.hasProc = true
		c.Event.Proc = sess.Proc
		c.Event.Session = sess.ID
		c.Event.User = sess.User
	}
	return c
}

// releaseOpContext returns a context to the pool. Callers must have read
// everything they need (cost total, new session) first.
func releaseOpContext(c *OpContext) {
	pending := c.pending[:0]
	*c = OpContext{pending: pending}
	opCtxPool.Put(c)
}

// invoke is the handler-table lookup. Unregistered or
// out-of-range operations fail with the table default, ErrBadRequest.
func (s *Server) invoke(c *OpContext) (*protocol.Response, error) {
	op := int(c.Req.Op)
	if op >= len(s.handlers) || s.handlers[op] == nil {
		return nil, protocol.ErrBadRequest
	}
	return s.handlers[op](c)
}

// journalsMutation reports whether the request's op class reaches the
// metadata journal: every metadata mutation, content commits (PutContent,
// and PutPart only when it carries the final part — earlier parts touch just
// the transient uploadjob, which is not journaled), and nothing on the read
// or session paths. Authenticate is excluded even though a first login
// provisions the account: account creation is the SSO tier's slow path, not
// a client-visible write the durability invariant covers.
func journalsMutation(req *protocol.Request) bool {
	switch req.Op {
	case protocol.OpMakeFile, protocol.OpMakeDir, protocol.OpUnlink,
		protocol.OpMove, protocol.OpCreateUDF, protocol.OpDeleteVolume,
		protocol.OpCreateShare, protocol.OpAcceptShare, protocol.OpPutContent:
		return true
	case protocol.OpPutPart:
		return req.Final
	}
	return false
}

// dispatch runs one request through the API edge's fixed sequence and
// returns its response, which is never nil.
func (s *Server) dispatch(c *OpContext) *protocol.Response {
	req := c.Req

	// 1. Gates, in order. The first refusal preempts the handler, so refused
	// work charges no cost and pushes nothing.
	//   - session guard: no session, no service. The one exception is
	//     Authenticate dispatched via OpenSession, the only entry point that
	//     can hand the created session back to the transport. A request
	//     refused here was never admitted, so it leaves no trace event,
	//     metric or fault accounting.
	//   - inject: the deterministic per-op fault plan, a pure function of
	//     (plan Seed, user, op, virtual now) — no shared RNG — which keeps
	//     the failure stream reproducible for any fixed (Seed, Workers,
	//     Plan). Requests carrying a non-zero Attempt are retried traffic.
	//   - region: mutations whose owning metadata region is down fail with
	//     StatusUnavailable before any back-end work; reads pass, since the
	//     store routes them to a surviving replica.
	//   - SSO bucket: a login storm drains the fleet-shared token bucket and
	//     the excess Authenticate is shed before the auth back-end is
	//     touched. OpenSession's Authenticate has no process yet, so the
	//     watermark below never covers it.
	//   - watermark: per-op-class shedding once the request's process
	//     crossed its admission watermark (§5.4's DDoS response, automated).
	//   - deadline and abort: nobody will read work whose deadline passed or
	//     whose client hung up.
	if c.Session == nil && !c.openSession {
		return fail(req.ID, errSessionRequired)
	}
	if req.Attempt > 0 {
		s.faultRetried.Inc()
	}
	var err error
	if st, ok := s.cfg.Faults.Decide(c.User, req.Op, c.Now); ok {
		s.faultInjected.Inc()
		err = fmt.Errorf("%w: injected fault", st.Err())
	} else if s.regions != nil && req.Volume != 0 && journalsMutation(req) && s.regions.WriteUnavailable(req.Volume) {
		s.regionRefused.Inc()
		err = fmt.Errorf("%w: metadata region down", protocol.ErrUnavailable)
	} else if req.Op == protocol.OpAuthenticate && !s.deps.SSO.Admit(c.Now) {
		s.faultSSOShed.Inc()
		err = fmt.Errorf("%w: sso admission", protocol.ErrOverloaded)
	} else if s.admission != nil && c.hasProc && !s.admission.Admit(c.Event.Proc, req.Op, c.Now) {
		s.faultShed.Inc()
		err = fmt.Errorf("%w: load shed", protocol.ErrOverloaded)
	} else if !c.Deadline.IsZero() && c.Now.After(c.Deadline) {
		err = fmt.Errorf("%w: deadline exceeded", protocol.ErrCancelled)
	} else if c.Aborted != nil && c.Aborted() {
		err = fmt.Errorf("%w: client disconnected", protocol.ErrCancelled)
	}
	c.preempted = err != nil

	// 2. Handler.
	var resp *protocol.Response
	if !c.preempted {
		resp, err = s.invoke(c)
	}

	// 3. Success-only effects: a failed operation must never push stale
	// generations to watchers, and only a successful mutation reaches the
	// journal, so only it is charged the fsync policy's sync cost — a pure
	// function of the policy, never of host disk speed.
	if err == nil {
		origin := c.Session
		if origin == nil {
			origin = c.newSession
		}
		for _, p := range c.pending {
			if p.share {
				s.notifyShare(origin, p.kind, p.info)
			} else {
				s.notifyVolume(origin, p.volume, p.gen)
			}
		}
		if s.cfg.Durability && journalsMutation(req) {
			c.Cost.Add(s.syncCost)
			s.walJournaled.Inc()
		}
		if req.Attempt > 0 {
			s.faultRetrySuccess.Inc()
		}
	}

	// 4. Every request: the uniform error→Status mapping and correlation ID,
	// the trace event (unless the operation suppressed it), the per-op
	// metrics, and the per-process op count once the process is known.
	if err != nil || resp == nil {
		resp = fail(req.ID, err)
	} else {
		resp.ID = req.ID
	}
	if !c.suppressEvent {
		c.Event.Duration = c.Cost.Total()
		c.Event.Status = resp.Status
		s.emit(c.Event)
	}
	if !c.skipMetrics {
		s.record(req.Op, c.Cost.Total(), resp.Status, c.preempted)
	}
	if c.hasProc {
		atomic.AddUint64(&s.procOps[c.Event.Proc], 1)
	}
	return resp
}
