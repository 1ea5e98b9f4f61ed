package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/faults"
	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// MMServer serves a Metadata Manager over TCP. One goroutine per
// connection; the mapper implementations are internally synchronized.
// The single mm.Manager and a shard-group member (MMShard) both fit.
type MMServer struct {
	mgr ecnp.Mapper
	ln  net.Listener

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	logf    func(string, ...any)
	replyTO time.Duration
	metrics *ServerMetrics
	inj     faults.Injector
	tracer  *trace.Tracer
}

// NewMMServer starts listening on addr ("127.0.0.1:0" for an ephemeral
// port) and serves mgr until Close.
func NewMMServer(mgr ecnp.Mapper, addr string) (*MMServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: mm listen: %w", err)
	}
	s := &MMServer{
		mgr:     mgr,
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
		logf:    func(string, ...any) {},
		metrics: nopServerMetrics("mm"),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetLogger routes diagnostics (default: discard).
func (s *MMServer) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// SetReplyTimeout arms a per-frame write deadline on every connection
// accepted after the call, so a client that stops reading cannot wedge a
// handler goroutine mid-reply. Zero (default) disables the bound.
func (s *MMServer) SetReplyTimeout(d time.Duration) {
	s.mu.Lock()
	s.replyTO = d
	s.mu.Unlock()
}

// SetMetrics routes request/error/deadline telemetry (default: no-op).
// It applies to requests handled after the call.
func (s *MMServer) SetMetrics(m *ServerMetrics) {
	if m == nil {
		m = nopServerMetrics("mm")
	}
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// SetFaults arms a fault injector at faults.PointMMHandle (before each
// request handler; detail is the message kind). Nil disables injection.
func (s *MMServer) SetFaults(inj faults.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// SetTracer joins request traces arriving on the wire: every handled
// message whose frame carries a span context opens a server-side child
// span ("mm.<Kind>") recorded in tr's ring. Nil (the default) disables
// server-side spans; untraced frames never open spans either way.
func (s *MMServer) SetTracer(tr *trace.Tracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

func (s *MMServer) injector() faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj
}

func (s *MMServer) tr() *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer
}

// Addr returns the listening address.
func (s *MMServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all active connections.
func (s *MMServer) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *MMServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *MMServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	wc := wire.NewConn(conn)
	s.mu.Lock()
	wc.SetWriteTimeout(s.replyTO)
	m := s.metrics
	s.mu.Unlock()
	for {
		msg, err := wc.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("mm: read: %v", err)
			}
			return
		}
		m.request(msg.Kind)
		if err := s.handle(wc, msg); err != nil {
			m.failure(msg.Kind, err)
			s.logf("mm: handle %v: %v", msg.Kind, err)
			return
		}
	}
}

// beater is the optional liveness surface of a mapper. mm.Manager and
// MMShard implement it; a mapper that does not (or a deployment
// with liveness disabled) simply accepts and ignores beacons, keeping
// ecnp.Mapper untouched.
type beater interface {
	Heartbeat(id ids.RMID) error
}

// shardPeer is the optional shard-group surface of a mapper: the local
// member of a replicated MM shard group (MMShard). The shard-plane
// messages — peer beats, mirrored mutations, keyspace handoffs — are
// refused by mappers that are not group members, so a misconfigured peer
// address fails loudly instead of silently corrupting a single MM.
type shardPeer interface {
	PeerBeat(shard int) error
	ApplyMirror(m wire.ShardMirror) error
	ApplyHandoff(h wire.ShardHandoff) (adopted int, err error)
}

func (s *MMServer) handle(wc *wire.Conn, msg wire.Msg) error {
	d := faults.Decide(s.injector(), faults.PointMMHandle, msg.Kind.String())
	if handled, err := applyFault(wc, d, wire.KindAck, wire.Ack{}, func() { s.Close() }); handled || err != nil {
		return err
	}
	var sp *trace.Span
	if msg.Trace.Valid() {
		// The guard keeps the name concat off the untraced path.
		sp = s.tr().StartChild(msg.Trace, "mm."+msg.Kind.String())
	}
	err := s.dispatch(wc, msg)
	if sp != nil {
		if err != nil {
			sp.SetOutcome("error")
		} else {
			sp.SetOutcome("ok")
		}
		sp.End()
	}
	return err
}

func (s *MMServer) dispatch(wc *wire.Conn, msg wire.Msg) error {
	bad := func() error { return wc.WriteError(fmt.Errorf("bad %v payload", msg.Kind)) }
	switch msg.Kind {
	case wire.KindRegisterRM:
		req, ok := msg.Payload.(wire.RegisterRM)
		if !ok {
			return bad()
		}
		return ack(wc, s.mgr.RegisterRM(req.Info, req.Files))
	case wire.KindLookup:
		req, ok := msg.Payload.(wire.FileRef)
		if !ok {
			return bad()
		}
		return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.Lookup(req.File)})
	case wire.KindRMsWithout:
		req, ok := msg.Payload.(wire.FileRef)
		if !ok {
			return bad()
		}
		return wc.Write(wire.KindRMList, wire.RMList{RMs: s.mgr.RMsWithout(req.File)})
	case wire.KindAddReplica:
		req, ok := msg.Payload.(wire.ReplicaRef)
		if !ok {
			return bad()
		}
		return ack(wc, s.mgr.AddReplica(req.File, req.RM))
	case wire.KindRemoveReplica:
		req, ok := msg.Payload.(wire.ReplicaRef)
		if !ok {
			return bad()
		}
		return ack(wc, s.mgr.RemoveReplica(req.File, req.RM))
	case wire.KindBeginReplication:
		req, ok := msg.Payload.(wire.BeginReplication)
		if !ok {
			return bad()
		}
		return ack(wc, s.mgr.BeginReplication(req.File, req.RM, req.MaxTotal))
	case wire.KindEndReplication:
		req, ok := msg.Payload.(wire.EndReplication)
		if !ok {
			return bad()
		}
		return ack(wc, s.mgr.EndReplication(req.File, req.RM, req.Commit))
	case wire.KindReplicaCount:
		req, ok := msg.Payload.(wire.FileRef)
		if !ok {
			return bad()
		}
		return wc.Write(wire.KindCount, wire.Count{N: s.mgr.ReplicaCount(req.File)})
	case wire.KindRMs:
		return wc.Write(wire.KindRMInfoList, wire.RMInfoList{Infos: s.mgr.RMs()})
	case wire.KindHeartbeat:
		hb, ok := msg.Payload.(wire.Heartbeat)
		if !ok {
			return bad()
		}
		if b, ok := s.mgr.(beater); ok {
			return ack(wc, b.Heartbeat(hb.RM))
		}
		return ack(wc, nil)
	case wire.KindShardBeat, wire.KindShardMirror, wire.KindShardHandoff:
		peer, ok := s.mgr.(shardPeer)
		if !ok {
			return wc.WriteError(fmt.Errorf("mm: not a shard-group member"))
		}
		switch p := msg.Payload.(type) {
		case wire.ShardBeat:
			if msg.Kind == wire.KindShardBeat {
				return ack(wc, peer.PeerBeat(int(p.Shard)))
			}
		case wire.ShardMirror:
			if msg.Kind == wire.KindShardMirror {
				return ack(wc, peer.ApplyMirror(p))
			}
		case wire.ShardHandoff:
			if msg.Kind != wire.KindShardHandoff {
				break
			}
			n, err := peer.ApplyHandoff(p)
			if err != nil {
				return wc.WriteError(err)
			}
			return wc.Write(wire.KindCount, wire.Count{N: n})
		}
		return bad()
	default:
		return wc.WriteError(fmt.Errorf("mm: unexpected message %v", msg.Kind))
	}
}

// ack answers a request whose only result is err.
func ack(wc *wire.Conn, err error) error {
	if err != nil {
		return wc.WriteError(err)
	}
	return wc.Write(wire.KindAck, wire.Ack{})
}

// MMClient is an ecnp.Mapper stub over a pooled transport: concurrent
// calls proceed on independent connections with dial and call deadlines
// instead of serializing behind one mutex-guarded socket.
type MMClient struct {
	mapperStub
	t *transport.Client
}

// DialMM connects to an MM server with the default transport tuning,
// verifying connectivity eagerly.
func DialMM(addr string) (*MMClient, error) {
	return DialMMConfig(addr, transport.DefaultConfig())
}

// DialMMConfig is DialMM with explicit transport tuning.
func DialMMConfig(addr string, cfg transport.Config) (*MMClient, error) {
	t, err := transport.Dial(addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("live: dial mm %s: %w", addr, err)
	}
	return newMMClient(t), nil
}

// NewMMClient attaches a client stub without probing connectivity: the
// transport dials lazily on first call. Shard-group members and the
// shard mapper use this so a listed-but-down member never blocks
// startup — the whole point of the group is surviving a dead member.
func NewMMClient(addr string, cfg transport.Config) *MMClient {
	return newMMClient(transport.NewClient(addr, cfg))
}

func newMMClient(t *transport.Client) *MMClient {
	call := func(kind wire.Kind, payload any) (wire.Msg, error) {
		return t.Call(context.Background(), kind, payload)
	}
	return &MMClient{t: t, mapperStub: mapperStub{
		file: func(ctx context.Context, _ ids.FileID, kind wire.Kind, payload any) (wire.Msg, error) {
			return t.Call(ctx, kind, payload)
		},
		fan: func(kind wire.Kind, payload any) error {
			_, err := call(kind, payload)
			return err
		},
		first: call,
		log:   func(string, ...any) {},
	}}
}

// SetLogger routes client-side diagnostics (lookup failures and the like)
// through logf; the default discards them, matching the servers.
func (c *MMClient) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c.log = logf
}

// Close releases all pooled connections.
func (c *MMClient) Close() error { return c.t.Close() }

// mapperStub is the ecnp.Mapper client surface MMClient (one MM) and
// ShardMapper (a shard group) share: it builds each request frame and
// decodes the reply, and leaves routing to its owner's send functions.
type mapperStub struct {
	// file sends a call about one file.
	file func(ctx context.Context, f ids.FileID, kind wire.Kind, payload any) (wire.Msg, error)
	// fan sends a registration or heartbeat to every MM.
	fan func(kind wire.Kind, payload any) error
	// first sends a group-wide query that any one MM answers.
	first func(kind wire.Kind, payload any) (wire.Msg, error)
	// log reports the failures ecnp.Mapper signatures cannot return.
	log func(string, ...any)
}

// RegisterRM implements ecnp.Mapper (a shard group keeps, per member,
// the files the member owns).
func (c *mapperStub) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	return c.fan(wire.KindRegisterRM, wire.RegisterRM{Info: info, Files: files})
}

// Heartbeat sends one liveness beacon for id. A remote error means an MM
// does not know the RM (e.g. it restarted and lost the resource list):
// the caller must re-register, which also reconciles its file list.
func (c *mapperStub) Heartbeat(id ids.RMID) error {
	return c.fan(wire.KindHeartbeat, wire.Heartbeat{RM: id})
}

// Lookup implements ecnp.Mapper.
func (c *mapperStub) Lookup(file ids.FileID) []ids.RMID {
	return c.LookupContext(context.Background(), file)
}

// LookupContext is Lookup carrying ctx to the MM: its deadline bounds the
// round trip and a span context attached via trace.NewContext rides the
// request frame, so the MM's readdir handling appears in the caller's
// trace.
func (c *mapperStub) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	holders, err := c.LookupErrContext(ctx, file)
	if err != nil {
		c.log("live: mm lookup: %v", err)
	}
	return holders
}

// LookupErrContext is LookupContext surfacing the failure with the
// transport taxonomy intact (dfsc's error-reporting mapper interface), so
// the client can tell a dead MM from a file with no replicas.
func (c *mapperStub) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	reply, err := c.file(ctx, file, wire.KindLookup, wire.FileRef{File: file})
	if err != nil {
		return nil, err
	}
	if l, ok := reply.Payload.(wire.RMList); ok {
		return l.RMs, nil
	}
	return nil, fmt.Errorf("live: mm lookup: unexpected reply %v", reply.Kind)
}

// RMsWithout implements ecnp.Mapper.
func (c *mapperStub) RMsWithout(file ids.FileID) []ids.RMID {
	reply, err := c.file(context.Background(), file, wire.KindRMsWithout, wire.FileRef{File: file})
	if err != nil {
		c.log("live: mm rms-without: %v", err)
		return nil
	}
	l, _ := reply.Payload.(wire.RMList)
	return l.RMs
}

// write sends a file-keyed mutation (a shard group's serving owner
// mirrors it onward).
func (c *mapperStub) write(file ids.FileID, kind wire.Kind, payload any) error {
	_, err := c.file(context.Background(), file, kind, payload)
	return err
}

// AddReplica implements ecnp.Mapper.
func (c *mapperStub) AddReplica(file ids.FileID, rm ids.RMID) error {
	return c.write(file, wire.KindAddReplica, wire.ReplicaRef{File: file, RM: rm})
}

// RemoveReplica implements ecnp.Mapper.
func (c *mapperStub) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return c.write(file, wire.KindRemoveReplica, wire.ReplicaRef{File: file, RM: rm})
}

// BeginReplication implements ecnp.Mapper.
func (c *mapperStub) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return c.write(file, wire.KindBeginReplication, wire.BeginReplication{File: file, RM: rm, MaxTotal: maxTotal})
}

// EndReplication implements ecnp.Mapper.
func (c *mapperStub) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return c.write(file, wire.KindEndReplication, wire.EndReplication{File: file, RM: rm, Commit: commit})
}

// ReplicaCount implements ecnp.Mapper.
func (c *mapperStub) ReplicaCount(file ids.FileID) int {
	reply, err := c.file(context.Background(), file, wire.KindReplicaCount, wire.FileRef{File: file})
	if err != nil {
		c.log("live: mm replica-count: %v", err)
		return 0
	}
	n, _ := reply.Payload.(wire.Count)
	return n.N
}

// RMs implements ecnp.Mapper (the resource list replicates to every
// shard, so any one that answers is canonical).
func (c *mapperStub) RMs() []ecnp.RMInfo {
	reply, err := c.first(wire.KindRMs, nil)
	if err != nil {
		c.log("live: mm rms: %v", err)
		return nil
	}
	l, _ := reply.Payload.(wire.RMInfoList)
	return l.Infos
}

var _ ecnp.Mapper = (*MMClient)(nil)
