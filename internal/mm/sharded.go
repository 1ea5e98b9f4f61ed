package mm

import (
	"fmt"
	"slices"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/wire"
)

// ShardedManager is a distributed Metadata Manager: the file → replica map
// is partitioned across shards by consistent hashing, while the (small)
// global resource list is replicated to every shard so any shard can
// answer "which RMs exist" and "which RMs lack a replica of file f"
// locally. This is the DHT design the paper points to for scaling past a
// single MM; with one shard it degenerates to exactly the single manager.
//
// The group is N ShardMembers on an in-process loopback sharing one
// ShardHealth (internal/live's MMShard runs the same members over TCP).
// ShardedManager adds only what a client of the group does: it routes
// each file operation to the file's first live owner and fans
// registrations and heartbeats to every live member. KillShard and
// ReviveShard have the survivors run the members' takeover and heal.
type ShardedManager struct {
	members loopback
	health  *ShardHealth
	met     *Metrics
	none    *Manager // answers reads whose whole owner set is dead
}

// loopback is the in-process ShardPeers: a call on member `to` is a
// direct method call.
type loopback []*ShardMember

func (l loopback) Mirror(to int, m wire.ShardMirror) error { return l[to].ApplyMirror(m) }

func (l loopback) Handoff(to int, h wire.ShardHandoff) (int, error) { return l[to].ApplyHandoff(h) }

func (l loopback) Beat(to int, b wire.ShardBeat) error { return l[to].PeerBeat(int(b.Shard)) }

// NewSharded returns a distributed manager over n shards with no
// metadata replication (R = 1), the pre-replication behavior.
func NewSharded(n int) *ShardedManager {
	return NewShardedReplicated(n, 1)
}

// NewShardedReplicated returns a distributed manager over n shards with
// each file's mapping replicated to r distinct shards (clamped to [1, n]).
func NewShardedReplicated(n, r int) *ShardedManager {
	m := &ShardedManager{
		members: make(loopback, n),
		health:  NewShardHealth(n, LivenessConfig{}),
		none:    New(),
	}
	ring := NewRing(n)
	for i := range m.members {
		m.members[i] = NewShardMember(i, ring, r, m.health, m.members)
	}
	m.SetMetrics(nil)
	return m
}

// NumShards returns the shard count.
func (m *ShardedManager) NumShards() int { return len(m.members) }

// Shard exposes one shard's manager (diagnostics and tests).
func (m *ShardedManager) Shard(i int) *Manager { return m.members[i].local }

// ownersOf returns the shards owning file's mapping, primary first, in
// ring-successor order.
func (m *ShardedManager) ownersOf(file ids.FileID) []int { return m.members[0].ownersOf(file) }

// owner routes a file operation to its first live owner; nil when the
// whole owner set is dead.
func (m *ShardedManager) owner(file ids.FileID) *ShardMember {
	for _, s := range m.ownersOf(file) {
		if m.health.Alive(s) {
			return m.members[s]
		}
	}
	return nil
}

// write routes a mutation to file's first live owner, which applies it
// and mirrors it to the other live owners.
func (m *ShardedManager) write(file ids.FileID, op func(*ShardMember) error) error {
	s := m.owner(file)
	if s == nil {
		return fmt.Errorf("mm: no live shard owns %v", file)
	}
	return op(s)
}

// live returns the live members in ascending index order.
func (m *ShardedManager) live() []*ShardMember {
	out := make([]*ShardMember, 0, len(m.members))
	for i, s := range m.members {
		if m.health.Alive(i) {
			out = append(out, s)
		}
	}
	return out
}

// canonical returns the lowest-index live shard, the authority for the
// replicated resource list (shard 0 while everything is up).
func (m *ShardedManager) canonical() *Manager {
	if live := m.live(); len(live) > 0 {
		return live[0].local
	}
	return m.members[0].local
}

// RegisterRM implements ecnp.Mapper: the registration fans to every live
// member, each keeping the files it owns. Dead shards miss the update and
// reconverge through the heal handoff on revival.
func (m *ShardedManager) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	for _, s := range m.live() {
		if err := s.RegisterRM(info, files); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
	}
	return nil
}

// reader routes a read to file's first live owner. A fully-dead owner
// set answers from an empty manager: the mapping is unreachable until a
// shard revives.
func (m *ShardedManager) reader(file ids.FileID) *Manager {
	if s := m.owner(file); s != nil {
		return s.local
	}
	return m.none
}

// Lookup implements ecnp.Mapper.
func (m *ShardedManager) Lookup(file ids.FileID) []ids.RMID { return m.reader(file).Lookup(file) }

// RMsWithout implements ecnp.Mapper.
func (m *ShardedManager) RMsWithout(file ids.FileID) []ids.RMID {
	return m.reader(file).RMsWithout(file)
}

// ReplicaCount implements ecnp.Mapper.
func (m *ShardedManager) ReplicaCount(file ids.FileID) int { return m.reader(file).ReplicaCount(file) }

// AddReplica implements ecnp.Mapper.
func (m *ShardedManager) AddReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *ShardMember) error { return s.AddReplica(file, rm) })
}

// RemoveReplica implements ecnp.Mapper.
func (m *ShardedManager) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(file, func(s *ShardMember) error { return s.RemoveReplica(file, rm) })
}

// BeginReplication implements ecnp.Mapper.
func (m *ShardedManager) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return m.write(file, func(s *ShardMember) error { return s.BeginReplication(file, rm, maxTotal) })
}

// EndReplication implements ecnp.Mapper.
func (m *ShardedManager) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return m.write(file, func(s *ShardMember) error { return s.EndReplication(file, rm, commit) })
}

// RMs implements ecnp.Mapper. The resource list is replicated, so the
// lowest-index live shard is canonical.
func (m *ShardedManager) RMs() []ecnp.RMInfo { return m.canonical().RMs() }

// AllRMs returns every registered RM regardless of liveness (lowest-index
// live shard is canonical).
func (m *ShardedManager) AllRMs() []ecnp.RMInfo { return m.canonical().AllRMs() }

// SetLiveness arms RM failure detection on every shard (the resource
// list, and therefore the liveness table, is replicated).
func (m *ShardedManager) SetLiveness(cfg LivenessConfig) {
	for _, s := range m.members {
		s.SetLiveness(cfg)
	}
}

// SetClock overrides the wall-clock source on every shard and on the
// shard liveness table (tests).
func (m *ShardedManager) SetClock(now func() time.Time) {
	for _, s := range m.members {
		s.local.SetClock(now)
	}
	m.health.SetClock(now)
}

// SetMetrics routes MM telemetry. Shard 0 carries the RM gauges (the
// resource list is replicated, so any shard's view is canonical); the
// other shards' managers keep no-op sinks so per-incident counters are
// not multiplied by the shard count. Every member reports the
// shard-group counters (mirrors, handoffs) into met.
func (m *ShardedManager) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	m.met = met
	for _, s := range m.members {
		s.setGroupMetrics(met)
	}
	m.members[0].local.SetMetrics(met)
	m.health.SetMetrics(met)
}

// Heartbeat fans an RM's liveness beacon to every live shard so each
// replica of the resource list heals and expires in step. Dead shards
// are skipped — their stale tables rebuild on revival via the heal
// handoff and the RM re-registration machinery.
func (m *ShardedManager) Heartbeat(id ids.RMID) error {
	for _, s := range m.live() {
		if err := s.Heartbeat(id); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
	}
	return nil
}

// Epoch returns id's liveness epoch (lowest-index live shard is canonical).
func (m *ShardedManager) Epoch(id ids.RMID) uint64 { return m.canonical().Epoch(id) }

// LiveCount returns the live-RM count (lowest-index live shard is canonical).
func (m *ShardedManager) LiveCount() int { return m.canonical().LiveCount() }

// Alive reports the canonical shard's view of id's liveness.
func (m *ShardedManager) Alive(id ids.RMID) bool { return m.canonical().Alive(id) }

// KillShard marks shard i dead and has every survivor run its takeover,
// restoring R live replicas of i's keyspace (with R = 1 it stays
// unreachable until i revives: the single-MM failure mode, confined to
// 1/N of files). It returns the replica entries moved; killing a dead
// shard is a no-op.
func (m *ShardedManager) KillShard(i int) int {
	if !m.health.SetDown(i, true) {
		return 0
	}
	moved := 0
	for _, s := range m.live() {
		moved += s.Takeover(i)
	}
	return moved
}

// ReviveShard brings shard i back and has every other live member run its
// heal: the mappings i owns flow back from live owners (or, with the
// whole owner set down, from takeover copies), so the revived shard
// serves its keyspace again. Reviving a live shard is a no-op. It returns
// the number of replica entries healed.
func (m *ShardedManager) ReviveShard(i int) int {
	if !m.health.SetDown(i, false) {
		return 0
	}
	healed := 0
	for _, s := range m.live() {
		healed += s.Heal(i)
	}
	return healed
}

// ShardAlive reports whether shard i is live.
func (m *ShardedManager) ShardAlive(i int) bool { return m.health.Alive(i) }

// LiveShardCount returns the number of live shards.
func (m *ShardedManager) LiveShardCount() int { return m.health.LiveCount() }

// ShardEpoch returns shard i's revival epoch.
func (m *ShardedManager) ShardEpoch(i int) uint64 { return m.health.Epoch(i) }

// FilesOn merges the per-shard file lists of one RM (replicated mappings
// appear once).
func (m *ShardedManager) FilesOn(rm ids.RMID) []ids.FileID {
	var out []ids.FileID
	for _, s := range m.members {
		out = append(out, s.local.FilesOn(rm)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Validate checks every live shard's replica-map invariants plus the
// cross-shard invariants that live shards agree on the resource list and
// that every live member of a file's owner set agrees on its holders.
// Dead shards are exempt: their staleness is what the heal handoff exists
// to fix.
func (m *ShardedManager) Validate() error {
	live := m.live()
	if len(live) == 0 {
		return fmt.Errorf("mm: no live shards")
	}
	canonical := live[0].local.RMs()
	for _, s := range live {
		if err := s.local.Validate(); err != nil {
			return fmt.Errorf("mm: shard %d: %w", s.index, err)
		}
		if !slices.Equal(s.local.RMs(), canonical) {
			return fmt.Errorf("mm: shard %d resource list diverges from shard %d", s.index, live[0].index)
		}
		for _, f := range s.local.Files() {
			owners := m.ownersOf(f)
			if !slices.Contains(owners, s.index) {
				continue // lingering takeover copy; harmless, reads route to owners
			}
			want := s.local.Replicas(f)
			for _, o := range owners {
				if o != s.index && m.health.Alive(o) && !slices.Equal(want, m.members[o].local.Replicas(f)) {
					return fmt.Errorf("mm: shards %d and %d disagree on %v holders", s.index, o, f)
				}
			}
		}
	}
	return nil
}

var _ ecnp.Mapper = (*ShardedManager)(nil)
