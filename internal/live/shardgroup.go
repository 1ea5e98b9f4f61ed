package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/faults"
	"dfsqos/internal/mm"
	"dfsqos/internal/transport"
	"dfsqos/internal/wire"
)

// MMShard is one member of a replicated MM shard group over TCP, the
// mapper `mmd -peers` serves. The protocol is mm.ShardMember's; MMShard
// adds its TCP transport: MMClient stubs to the peer shards, the
// mm.shard.mirror / mm.shard.handoff fault points, and the beat loop
// that detects dead peers.
type MMShard struct {
	*mm.ShardMember
	links *shardLinks
}

// shardLinks implements mm.ShardPeers over ring-index aligned MMClient
// stubs.
type shardLinks struct {
	mu    sync.Mutex
	peers []*MMClient // nil at the member's own index / unset
	inj   faults.Injector
}

// NewMMShard builds member index of a shards-wide group with replication
// factor rep (clamped to [1, shards]). beat arms shard liveness: a peer
// silent for MissThreshold × HeartbeatInterval is dead; a zero config
// disables expiry. Peers are attached with SetPeer or DialPeers.
func NewMMShard(index, shards, rep int, beat mm.LivenessConfig) (*MMShard, error) {
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("live: shard index %d outside [0,%d)", index, shards)
	}
	links := &shardLinks{peers: make([]*MMClient, shards)}
	member := mm.NewShardMember(index, mm.NewRing(shards), rep, mm.NewShardHealth(shards, beat), links)
	return &MMShard{ShardMember: member, links: links}, nil
}

// SetPeer attaches the client stub for peer shard i (ignored for the
// member's own index).
func (s *MMShard) SetPeer(i int, c *MMClient) {
	if i == s.Index() {
		return
	}
	s.links.mu.Lock()
	s.links.peers[i] = c
	s.links.mu.Unlock()
}

// DialPeers attaches client stubs for every non-empty address in addrs
// (ring-index aligned; the member's own slot is skipped). Dialing is
// lazy at the transport layer, so listed-but-down peers do not block
// startup.
func (s *MMShard) DialPeers(addrs []string, cfg transport.Config) error {
	for i, addr := range addrs {
		if i != s.Index() && addr != "" {
			s.SetPeer(i, NewMMClient(addr, cfg))
		}
	}
	return nil
}

// ClosePeers waits for background heals to finish, then releases every
// peer stub's pooled connections.
func (s *MMShard) ClosePeers() {
	s.Drain()
	s.links.mu.Lock()
	defer s.links.mu.Unlock()
	for i, c := range s.links.peers {
		if c != nil {
			c.Close()
			s.links.peers[i] = nil
		}
	}
}

// SetFaults arms a fault injector at faults.PointShardMirror (detail: the
// mutation name) and faults.PointShardHandoff (detail: the direction).
func (s *MMShard) SetFaults(inj faults.Injector) {
	s.links.mu.Lock()
	s.links.inj = inj
	s.links.mu.Unlock()
}

// stub returns peer i's client stub and the fault injector.
func (l *shardLinks) stub(i int) (*MMClient, faults.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peers[i], l.inj
}

// call sends one shard-plane frame to peer i, first consulting the fault
// point: Drop and Kill model a partition (the send never happens).
func (l *shardLinks) call(i int, point faults.Point, detail string, kind wire.Kind, payload any) (wire.Msg, error) {
	p, inj := l.stub(i)
	if p == nil {
		return wire.Msg{}, fmt.Errorf("live: no stub for shard %d", i)
	}
	if point != "" {
		switch d := faults.Decide(inj, point, detail); d.Action {
		case faults.Drop, faults.Kill:
			return wire.Msg{}, fmt.Errorf("live: %s %s partitioned", point, detail)
		case faults.Error:
			return wire.Msg{}, d.Err
		case faults.Delay:
			time.Sleep(d.Delay)
		}
	}
	return p.t.Call(context.Background(), kind, payload)
}

// Mirror implements mm.ShardPeers.
func (l *shardLinks) Mirror(to int, m wire.ShardMirror) error {
	_, err := l.call(to, faults.PointShardMirror, m.Op, wire.KindShardMirror, m)
	return err
}

// Handoff implements mm.ShardPeers.
func (l *shardLinks) Handoff(to int, h wire.ShardHandoff) (int, error) {
	reply, err := l.call(to, faults.PointShardHandoff, h.Direction, wire.KindShardHandoff, h)
	if err != nil {
		return 0, err
	}
	n, _ := reply.Payload.(wire.Count)
	return n.N, nil
}

// Beat implements mm.ShardPeers (no fault point: a partition shows up
// as silence on the mirror and handoff paths).
func (l *shardLinks) Beat(to int, b wire.ShardBeat) error {
	_, err := l.call(to, "", "", wire.KindShardBeat, b)
	return err
}

// StartShardBeats runs the member's beat loop until stopped: every
// interval it beats each configured peer (mm.ShardMember.BeatPeer) and
// sweeps for newly-dead peers, running their takeover handoffs.
//
// Beats are concurrent, one goroutine per peer with an in-flight guard:
// a dead peer's call stalls in the transport's redial-backoff gate, and
// with a serial loop that stall pushed the whole tick past the beat
// deadline — healthy peers (and the member's own slot) went stale purely
// because a different peer was down. Concurrency keeps the tick cadence
// fixed no matter how many peers are dark.
func (s *MMShard) StartShardBeats(interval time.Duration) (stop func()) {
	inflight := make([]atomic.Bool, len(s.links.peers))
	var wg sync.WaitGroup
	stopTicks := every(interval, func() {
		for i := range inflight {
			if p, _ := s.links.stub(i); p == nil || !inflight[i].CompareAndSwap(false, true) {
				continue // unset, or the previous beat is still in flight
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer inflight[i].Store(false)
				s.BeatPeer(i)
			}(i)
		}
		s.Sweep()
	})
	return func() {
		stopTicks()
		wg.Wait()
	}
}

var _ shardPeer = (*MMShard)(nil)
var _ beater = (*MMShard)(nil)
