package live_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/rng"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
)

// tcpGroup is a loopback-TCP MM shard group driven step by step: no beat
// loops, so kills and revivals apply exactly when the test says, the way
// mm.ShardedManager's KillShard / ReviveShard do in-process.
type tcpGroup struct {
	t      *testing.T
	n, rep int
	cfg    transport.Config
	shards []*live.MMShard // nil while dead
	srvs   []*live.MMServer
	addrs  []string
	mapper *live.ShardMapper
}

func startTCPGroup(t *testing.T, n, rep int) *tcpGroup {
	t.Helper()
	g := &tcpGroup{
		t: t, n: n, rep: rep,
		// Fast redials: a revived member listens again within the step.
		cfg:    transport.Config{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond},
		shards: make([]*live.MMShard, n),
		srvs:   make([]*live.MMServer, n),
		addrs:  make([]string, n),
	}
	for i := 0; i < n; i++ {
		g.boot(i, "127.0.0.1:0")
	}
	for _, s := range g.shards {
		if err := s.DialPeers(g.addrs, g.cfg); err != nil {
			t.Fatal(err)
		}
	}
	mapper, err := live.DialShardMapper(g.addrs, rep, g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapper.SetRetryPolicy(time.Millisecond, 1)
	g.mapper = mapper
	return g
}

// boot starts an empty member i listening on addr.
func (g *tcpGroup) boot(i int, addr string) {
	g.t.Helper()
	s, err := live.NewMMShard(i, g.n, g.rep, mm.LivenessConfig{})
	if err != nil {
		g.t.Fatal(err)
	}
	s.SetLogger(g.t.Logf)
	srv, err := live.NewMMServer(s, addr)
	if err != nil {
		g.t.Fatal(err)
	}
	g.shards[i], g.srvs[i], g.addrs[i] = s, srv, srv.Addr()
}

func (g *tcpGroup) live() []*live.MMShard {
	var out []*live.MMShard
	for _, s := range g.shards {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// kill stops member i's process, then every survivor latches the death
// and runs its takeover.
func (g *tcpGroup) kill(i int) {
	g.srvs[i].Close()
	g.shards[i].ClosePeers()
	g.shards[i] = nil
	for _, s := range g.live() {
		s.Health().SetDown(i, true)
	}
	for _, s := range g.live() {
		s.Takeover(i)
	}
}

// revive restarts member i as an empty process on its old address; the
// survivors latch the revival and run their heals.
func (g *tcpGroup) revive(i int) {
	g.t.Helper()
	g.boot(i, g.addrs[i])
	if err := g.shards[i].DialPeers(g.addrs, g.cfg); err != nil {
		g.t.Fatal(err)
	}
	for j, s := range g.shards {
		if s == nil {
			g.shards[i].Health().SetDown(j, true)
		}
	}
	for _, s := range g.live() {
		if s.Index() != i {
			s.Health().SetDown(i, false)
		}
	}
	for _, s := range g.live() {
		s.Heal(i)
	}
}

func (g *tcpGroup) close() {
	for i, s := range g.shards {
		if s != nil {
			g.srvs[i].Close()
			s.ClosePeers()
		}
	}
	g.mapper.Close()
}

// TestShardDifferentialTransports runs one seeded op script against the
// in-process shard group (loopback peers) and a 4-member loopback-TCP
// group with R = 2, and requires every file's Lookup and ReplicaCount —
// and every op's success or refusal — to agree after each step. The
// script covers registration, replica add/remove, two-phase replication,
// the death of a file's primary, writes during that outage, the death of
// the rest of its owner set, and both revivals.
func TestShardDifferentialTransports(t *testing.T) {
	const n, rep, nFiles, nRMs = 4, 2, 32, 4
	inproc := mm.NewShardedReplicated(n, rep)
	tcp := startTCPGroup(t, n, rep)
	defer tcp.close()
	ring := mm.NewRing(n)
	src := rng.New(7)

	step := "start"
	agree := func() {
		t.Helper()
		for f := ids.FileID(0); f < nFiles; f++ {
			if a, b := inproc.Lookup(f), tcp.mapper.Lookup(f); !slices.Equal(a, b) {
				t.Fatalf("after %s: Lookup(%v) in-process %v, tcp %v", step, f, a, b)
			}
			if a, b := inproc.ReplicaCount(f), tcp.mapper.ReplicaCount(f); a != b {
				t.Fatalf("after %s: ReplicaCount(%v) in-process %d, tcp %d", step, f, a, b)
			}
		}
	}
	both := func(name string, op func(ecnp.Mapper) error) {
		t.Helper()
		step = name
		errA, errB := op(inproc), op(tcp.mapper)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: in-process err %v, tcp err %v", name, errA, errB)
		}
		agree()
	}

	for id := ids.RMID(1); id <= nRMs; id++ {
		var files []ids.FileID
		for f := ids.FileID(0); f < nFiles; f++ {
			if src.Float64() < 0.4 {
				files = append(files, f)
			}
		}
		info := ecnp.RMInfo{ID: id, Capacity: units.Mbps(100), StorageBytes: units.GB}
		both(fmt.Sprintf("RegisterRM(%v)", id), func(m ecnp.Mapper) error { return m.RegisterRM(info, files) })
	}
	pick := func() (ids.FileID, ids.RMID) {
		return ids.FileID(src.Intn(nFiles)), ids.RMID(1 + src.Intn(nRMs))
	}
	type pend struct {
		f  ids.FileID
		rm ids.RMID
	}
	var pending []pend
	for i := 0; i < 60; i++ {
		f, rm := pick()
		switch src.Intn(4) {
		case 0:
			both(fmt.Sprintf("AddReplica(%v,%v)", f, rm), func(m ecnp.Mapper) error { return m.AddReplica(f, rm) })
		case 1:
			both(fmt.Sprintf("RemoveReplica(%v,%v)", f, rm), func(m ecnp.Mapper) error { return m.RemoveReplica(f, rm) })
		case 2:
			var err error
			both(fmt.Sprintf("BeginReplication(%v,%v)", f, rm), func(m ecnp.Mapper) error {
				err = m.BeginReplication(f, rm, 3)
				return err
			})
			if err == nil {
				pending = append(pending, pend{f, rm})
			}
		case 3:
			if len(pending) == 0 {
				continue
			}
			p := pending[0]
			pending = pending[1:]
			commit := src.Intn(2) == 0
			both(fmt.Sprintf("EndReplication(%v,%v,%v)", p.f, p.rm, commit), func(m ecnp.Mapper) error {
				return m.EndReplication(p.f, p.rm, commit)
			})
		}
	}
	// Handoffs carry committed holders only, so settle every reservation
	// before the outages.
	for _, p := range pending {
		both(fmt.Sprintf("EndReplication(%v,%v,true)", p.f, p.rm), func(m ecnp.Mapper) error {
			return m.EndReplication(p.f, p.rm, true)
		})
	}

	owners := ring.SuccessorsOfFile(0, rep)
	a, b := owners[0], owners[1]
	step = fmt.Sprintf("kill %d", a)
	inproc.KillShard(a)
	tcp.kill(a)
	agree()

	// Writes during the outage, on files outside {a, b}'s shared keyspace:
	// an in-process revival keeps its pre-kill map while a TCP revival
	// starts empty, so a write only b saw would legitimately differ.
	for i := 0; i < 12; i++ {
		f, rm := pick()
		if o := ring.SuccessorsOfFile(int64(f), rep); slices.Contains(o, a) && slices.Contains(o, b) {
			continue
		}
		both(fmt.Sprintf("AddReplica(%v,%v) during outage", f, rm), func(m ecnp.Mapper) error { return m.AddReplica(f, rm) })
	}

	step = fmt.Sprintf("kill %d", b)
	inproc.KillShard(b)
	tcp.kill(b)
	agree()

	step = fmt.Sprintf("revive %d", a)
	inproc.ReviveShard(a)
	tcp.revive(a)
	agree()

	step = fmt.Sprintf("revive %d", b)
	inproc.ReviveShard(b)
	tcp.revive(b)
	agree()
	if err := inproc.Validate(); err != nil {
		t.Fatal(err)
	}
}
