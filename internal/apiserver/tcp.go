package apiserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"u1/internal/protocol"
	"u1/internal/wire"
)

// Serve accepts client connections on ln until the listener closes. Each
// connection carries one storage-protocol session: the first frame must be an
// Authenticate request; afterwards requests are served in order and pushes
// are interleaved onto the same connection, exactly the §3.3 model of one
// persistent TCP connection per desktop client.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("apiserver: accept: %w", err)
		}
		go s.handleConn(conn)
	}
}

// RunNotifier forwards broker events to local sessions until done closes.
// The TCP deployment runs one per server.
func (s *Server) RunNotifier(done <-chan struct{}) {
	for {
		select {
		case e, ok := <-s.queue:
			if !ok {
				return
			}
			s.pushLocal(e.User, e.ExcludeSession, &protocol.Push{
				Event:      e.Kind,
				Volume:     e.Volume,
				Generation: e.Generation,
				Share:      e.Share,
			})
		case <-done:
			return
		}
	}
}

// connWriter serializes frame writes: responses and pushes share the
// connection. It also tracks connection death: the first failed write flips
// the dead flag, which dispatch probes (OpContext.Aborted) so in-flight
// requests for a disconnected client are dropped before their handler runs
// instead of doing back-end work nobody will read.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	dead atomic.Bool
}

func (w *connWriter) writeFrame(msgType byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := wire.WriteFrame(w.conn, msgType, payload)
	if err != nil {
		w.dead.Store(true)
	}
	return err
}

// Push implements Pusher by writing a push frame. Write errors terminate the
// connection lazily: the read loop notices, and the dead flag aborts any
// request not yet past dispatch's gates.
func (w *connWriter) Push(p *protocol.Push) {
	_ = w.writeFrame(protocol.FramePush, p.Marshal())
}

// aborted reports whether the connection is known dead.
func (w *connWriter) aborted() bool { return w.dead.Load() }

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	w := &connWriter{conn: conn}

	var sess *Session
	defer func() {
		if sess != nil {
			//u1:allow wallclock real TCP transport stamps session close with host time
			s.CloseSession(sess, time.Now())
		}
	}()

	for {
		msgType, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return // io.EOF on clean shutdown; anything else drops the conn
		}
		if msgType != protocol.FrameRequest {
			return // protocol violation
		}
		req, err := protocol.UnmarshalRequest(payload)
		if err != nil {
			return
		}
		//u1:allow wallclock real TCP transport stamps requests with host time
		now := time.Now()

		var resp *protocol.Response
		switch {
		case req.Op == protocol.OpAuthenticate:
			if sess != nil {
				// One storage-protocol session per connection: re-auth on a
				// live session is a protocol violation (mirrors the
				// opAuthenticate handler's rule), and silently replacing sess
				// here would leak the prior session forever.
				resp = fail(req.ID, protocol.ErrBadRequest)
				break
			}
			var r *protocol.Response
			sess, r, _ = s.OpenSession(req.Token, w, now)
			r.ID = req.ID
			resp = r
		case req.Op == protocol.OpCloseSession:
			if sess != nil {
				s.CloseSession(sess, now)
				sess = nil
			}
			resp = &protocol.Response{ID: req.ID, Status: protocol.StatusOK}
		default:
			resp, _ = s.HandleWithCancel(sess, req, now, time.Time{}, w.aborted)
		}
		if err := w.writeFrame(protocol.FrameResponse, resp.Marshal()); err != nil {
			return
		}
		if req.Op == protocol.OpCloseSession {
			return
		}
	}
}

// ListenAndServe listens on addr and serves until the process ends. It
// reports the bound address through the optional ready channel, which helps
// tests bind port 0.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("apiserver: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ln)
}
