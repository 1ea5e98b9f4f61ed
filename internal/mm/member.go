package mm

import (
	"fmt"
	"slices"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/wire"
)

// ShardPeers is how a shard-group member reaches the other members, by
// ring index: each call lands on member `to`'s ApplyMirror, ApplyHandoff
// or PeerBeat. ShardedManager implements it as an in-process loopback;
// internal/live's MMShard implements it over TCP.
type ShardPeers interface {
	Mirror(to int, m wire.ShardMirror) error
	Handoff(to int, h wire.ShardHandoff) (adopted int, err error)
	Beat(to int, b wire.ShardBeat) error
}

// The four replica-map mutations a mirror can carry (wire.ShardMirror.Op).
const (
	opAdd    = "AddReplica"
	opRemove = "RemoveReplica"
	opBegin  = "BeginReplication"
	opEnd    = "EndReplication"
)

// ShardMember is one member of a replicated MM shard group: a full
// *Manager confined to the files whose ring owner set (primary + R-1
// successors) includes the member, plus the protocol that keeps owner
// sets converged. The in-process group and the TCP deployment run this
// one implementation and differ only in their ShardPeers.
//
// A mutation is served by the file's first live owner, which applies it
// and mirrors it to the other live owners; mirrors are terminal, so they
// cannot loop. When a peer dies its co-owned mappings are pushed to the
// next live shard beyond each owner set (takeover); when it comes back
// they are pushed back to it (heal). Handoffs apply idempotently, so
// overlapping pushes converge. A member always counts itself alive,
// whatever its own slot in the health table says.
type ShardMember struct {
	index  int
	ring   *Ring
	rep    int
	local  *Manager
	health *ShardHealth
	peers  ShardPeers

	mu       sync.Mutex
	met      *Metrics
	logf     func(string, ...any)
	heals    sync.WaitGroup // background heals started by PeerBeat
	draining bool
}

// NewShardMember builds member index of the group laid out by ring, with
// replication factor rep (clamped to [1, shards]). health is the
// member's view of shard liveness; peers reaches the other members.
func NewShardMember(index int, ring *Ring, rep int, health *ShardHealth, peers ShardPeers) *ShardMember {
	return &ShardMember{
		index:  index,
		ring:   ring,
		rep:    min(max(rep, 1), ring.Shards()),
		local:  New(),
		health: health,
		peers:  peers,
		met:    NewMetrics(nil),
		logf:   func(string, ...any) {},
	}
}

// Index returns this member's ring index.
func (m *ShardMember) Index() int { return m.index }

// Local exposes the member's local manager.
func (m *ShardMember) Local() *Manager { return m.local }

// Health exposes the member's shard liveness table.
func (m *ShardMember) Health() *ShardHealth { return m.health }

// SetLogger routes diagnostics (default: discard).
func (m *ShardMember) SetLogger(logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m.mu.Lock()
	m.logf = logf
	m.mu.Unlock()
}

// SetMetrics routes the local manager's, the health table's and the
// member's own (beats, mirrors, handoffs) telemetry.
func (m *ShardMember) SetMetrics(met *Metrics) {
	if met == nil {
		met = NewMetrics(nil)
	}
	m.setGroupMetrics(met)
	m.local.SetMetrics(met)
	m.health.SetMetrics(met)
}

func (m *ShardMember) setGroupMetrics(met *Metrics) {
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
}

// SetLiveness arms RM failure detection on the local manager.
func (m *ShardMember) SetLiveness(cfg LivenessConfig) { m.local.SetLiveness(cfg) }

func (m *ShardMember) telemetry() (*Metrics, func(string, ...any)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.met, m.logf
}

// ownersOf returns file's owner set, primary first, in ring order.
func (m *ShardMember) ownersOf(file ids.FileID) []int {
	return m.ring.SuccessorsOfFile(int64(file), m.rep)
}

// alive is the member's view of shard i; the member itself always is.
func (m *ShardMember) alive(i int) bool { return i == m.index || m.health.Alive(i) }

// firstLiveOwner returns the first live shard in owners other than
// skip, or -1.
func (m *ShardMember) firstLiveOwner(owners []int, skip int) int {
	for _, o := range owners {
		if o != skip && m.alive(o) {
			return o
		}
	}
	return -1
}

// firstLiveBeyond returns the first live shard beyond file's owner set
// in ring-successor order, or -1.
func (m *ShardMember) firstLiveBeyond(file ids.FileID, owners []int) int {
	for _, s := range m.ring.SuccessorsOfFile(int64(file), m.ring.Shards()) {
		if !slices.Contains(owners, s) && m.alive(s) {
			return s
		}
	}
	return -1
}

// RegisterRM implements ecnp.Mapper. Registrations reach every member
// with the RM's full file list; each keeps the files it owns, so the
// reconcile on re-registration prunes exactly its slice.
func (m *ShardMember) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	owned := make([]ids.FileID, 0, len(files))
	for _, f := range files {
		if slices.Contains(m.ownersOf(f), m.index) {
			owned = append(owned, f)
		}
	}
	return m.local.RegisterRM(info, owned)
}

// Lookup implements ecnp.Mapper.
func (m *ShardMember) Lookup(file ids.FileID) []ids.RMID { return m.local.Lookup(file) }

// RMsWithout implements ecnp.Mapper.
func (m *ShardMember) RMsWithout(file ids.FileID) []ids.RMID { return m.local.RMsWithout(file) }

// ReplicaCount implements ecnp.Mapper.
func (m *ShardMember) ReplicaCount(file ids.FileID) int { return m.local.ReplicaCount(file) }

// RMs implements ecnp.Mapper.
func (m *ShardMember) RMs() []ecnp.RMInfo { return m.local.RMs() }

// Heartbeat accepts an RM liveness beacon.
func (m *ShardMember) Heartbeat(id ids.RMID) error { return m.local.Heartbeat(id) }

// AddReplica implements ecnp.Mapper: local apply + mirror to co-owners.
func (m *ShardMember) AddReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(wire.ShardMirror{Op: opAdd, File: file, RM: rm})
}

// RemoveReplica implements ecnp.Mapper.
func (m *ShardMember) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	return m.write(wire.ShardMirror{Op: opRemove, File: file, RM: rm})
}

// BeginReplication implements ecnp.Mapper.
func (m *ShardMember) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	return m.write(wire.ShardMirror{Op: opBegin, File: file, RM: rm, MaxTotal: maxTotal})
}

// EndReplication implements ecnp.Mapper.
func (m *ShardMember) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	return m.write(wire.ShardMirror{Op: opEnd, File: file, RM: rm, Commit: commit})
}

// write applies mut locally (its error is the client's answer) and
// mirrors it to the other live owners. A mirror failure is counted and
// logged, not returned: the write committed, and the handoff protocol
// reconverges the diverged owner.
func (m *ShardMember) write(mut wire.ShardMirror) error {
	if err := m.apply(mut); err != nil {
		return err
	}
	met, logf := m.telemetry()
	for _, o := range m.ownersOf(mut.File) {
		if o == m.index || !m.health.Alive(o) {
			continue
		}
		if err := m.peers.Mirror(o, mut); err != nil {
			met.ShardMirrorsFailed.Inc()
			logf("mm: shard %d mirror %s to %d: %v", m.index, mut.Op, o, err)
			continue
		}
		met.ShardMirrorsOK.Inc()
	}
	return nil
}

// apply runs mut on the local manager with the serving owner's strict
// semantics.
func (m *ShardMember) apply(mut wire.ShardMirror) error {
	switch mut.Op {
	case opAdd:
		return m.local.AddReplica(mut.File, mut.RM)
	case opRemove:
		return m.local.RemoveReplica(mut.File, mut.RM)
	case opBegin:
		return m.local.BeginReplication(mut.File, mut.RM, mut.MaxTotal)
	case opEnd:
		return m.local.EndReplication(mut.File, mut.RM, mut.Commit)
	}
	return fmt.Errorf("mm: shard %d: unknown mirror op %q", m.index, mut.Op)
}

// ApplyMirror applies a mirrored mutation without mirroring it on.
// Replica add/remove are idempotent: a mirror can race a handoff batch
// carrying the same mapping.
func (m *ShardMember) ApplyMirror(mut wire.ShardMirror) error {
	switch mut.Op {
	case opAdd:
		_, err := m.local.AdoptReplicas(mut.File, []ids.RMID{mut.RM})
		return err
	case opRemove:
		if !slices.Contains(m.local.Replicas(mut.File), mut.RM) {
			return nil // already gone
		}
	}
	return m.apply(mut)
}

// ApplyHandoff adopts a keyspace batch pushed by a peer: unknown RMs
// register first (a restarted member is empty), then each entry merges
// idempotently. It returns, and counts by direction, the new entries.
func (m *ShardMember) ApplyHandoff(h wire.ShardHandoff) (int, error) {
	for _, info := range h.Infos {
		if _, known := m.local.RM(info.ID); known {
			continue
		}
		if err := m.local.RegisterRM(info, nil); err != nil {
			return 0, err
		}
	}
	adopted := 0
	for _, e := range h.Entries {
		n, err := m.local.AdoptReplicas(e.File, e.RMs)
		if err != nil {
			return adopted, err
		}
		adopted += n
	}
	met, _ := m.telemetry()
	if h.Direction == "heal" {
		met.HandoffHeal.Add(uint64(adopted))
	} else {
		met.HandoffTakeover.Add(uint64(adopted))
	}
	return adopted, nil
}

// PeerBeat records a liveness beacon from peer i. A beat that revives it
// starts its heal in the background (the sender awaits the reply).
func (m *ShardMember) PeerBeat(i int) error {
	if i < 0 || i >= m.ring.Shards() || i == m.index {
		return fmt.Errorf("mm: shard %d: bad peer beat from %d", m.index, i)
	}
	met, _ := m.telemetry()
	met.ShardBeats.Inc()
	if !m.health.Beat(i) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.draining {
		m.heals.Add(1)
		go func() {
			defer m.heals.Done()
			m.Heal(i)
		}()
	}
	return nil
}

// Drain stops PeerBeat from starting heals and waits for running ones.
func (m *ShardMember) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.heals.Wait()
}

// BeatPeer sends one beacon to peer i. The reply proves i alive too, so
// one working direction keeps both tables warm.
func (m *ShardMember) BeatPeer(i int) error {
	if err := m.peers.Beat(i, wire.ShardBeat{Shard: int32(m.index)}); err != nil {
		return err
	}
	if m.health.Beat(i) {
		m.Heal(i)
	}
	return nil
}

// Sweep latches peers that crossed their beat deadline and runs the
// takeover for each newly-dead one. The member first stamps its own slot
// (Stamp, not Beat: a stalled tick must not read as death plus revival).
func (m *ShardMember) Sweep() {
	m.health.Stamp(m.index)
	for _, dead := range m.health.Sweep() {
		if dead == m.index {
			continue
		}
		_, logf := m.telemetry()
		logf("mm: shard %d sweep: peer %d latched dead", m.index, dead)
		m.Takeover(dead)
	}
}

// Takeover pushes each mapping this member shares with dead shard `dead`
// to the first live shard beyond the file's owner set, if this member is
// the file's first live owner (one push, not one per survivor). It
// returns the entries adopted.
func (m *ShardMember) Takeover(dead int) int {
	batches := make(map[int][]wire.ShardEntry)
	for _, f := range m.local.Files() {
		owners := m.ownersOf(f)
		if !slices.Contains(owners, dead) || m.firstLiveOwner(owners, dead) != m.index {
			continue
		}
		if t := m.firstLiveBeyond(f, owners); t >= 0 {
			batches[t] = append(batches[t], wire.ShardEntry{File: f, RMs: m.local.Replicas(f)})
		}
	}
	return m.push(batches, "takeover")
}

// Heal pushes revived shard i's keyspace back to it. For each file whose
// owner set includes i, the pusher is the first live owner other than i;
// when there is none, a live holder beyond the owner set (a takeover
// copy) pushes instead. The first live member in ring order also pushes
// with no entries, so the revived shard learns RMs registered while it
// was down. It returns the entries adopted.
func (m *ShardMember) Heal(revived int) int {
	if revived == m.index {
		return 0
	}
	var entries []wire.ShardEntry
	for _, f := range m.local.Files() {
		owners := m.ownersOf(f)
		if !slices.Contains(owners, revived) {
			continue
		}
		// With no live owner but i, this member is no owner: a takeover copy.
		if p := m.firstLiveOwner(owners, revived); p == m.index || p < 0 {
			entries = append(entries, wire.ShardEntry{File: f, RMs: m.local.Replicas(f)})
		}
	}
	if len(entries) == 0 && m.firstLiveOwner(m.ring.Order(), revived) != m.index {
		return 0
	}
	return m.push(map[int][]wire.ShardEntry{revived: entries}, "heal")
}

// push sends one handoff per target, in index order.
func (m *ShardMember) push(batches map[int][]wire.ShardEntry, direction string) int {
	_, logf := m.telemetry()
	infos := m.local.AllRMs()
	adopted := 0
	for target := 0; target < m.ring.Shards(); target++ {
		entries, ok := batches[target]
		if !ok {
			continue
		}
		n, err := m.peers.Handoff(target, wire.ShardHandoff{
			From: int32(m.index), Direction: direction, Infos: infos, Entries: entries,
		})
		if err != nil {
			logf("mm: shard %d handoff %s to %d: %v", m.index, direction, target, err)
			continue
		}
		adopted += n
		logf("mm: shard %d handoff %s: %d entr(ies) to shard %d", m.index, direction, len(entries), target)
	}
	return adopted
}

var _ ecnp.Mapper = (*ShardMember)(nil)
