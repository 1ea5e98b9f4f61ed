package main

import (
	"fmt"
	"sync"
	"time"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/mm"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/trace"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
)

// unthrottled is the RM capacity and the disk read/write throttle: far
// above what loopback TCP can move, so neither firm admission nor blkio
// shapes any number and every failure is a real error.
const unthrottled = units.BytesPerSec(1e12)

// diskBytes is each virtual disk's accounting capacity. Provisioned files
// are synthesized on read and take no memory; only uploads are held.
const diskBytes = units.Size(1 << 40)

// negotiationTimeout is the dfsc daemon's default bid deadline.
const negotiationTimeout = 2 * time.Second

// maxFailovers is the dfsc daemon's default failover budget for a read.
const maxFailovers = 2

// deployment is one in-process loopback-TCP ECNP deployment: MM servers
// (one manager or a shard group), RM servers on virtual disks, and the
// generator's clients.
type deployment struct {
	spec *liveSpec
	cat  *catalog.Catalog
	// disks are the RMs' virtual disks, by RM.
	disks map[ids.RMID]*vdisk.Disk

	mmSrvs  []*live.MMServer
	shards  []*live.MMShard
	rmSrvs  []*live.RMServer
	closers []func()
	sched   *live.WallScheduler
	clients []*benchClient

	// tmet receives the generator clients' transport metrics.
	tmet *transport.Metrics
	// tracer is attached to every server and client in a traced pass.
	tracer *trace.Tracer
	// probe is an unwrapped mapper the output checks query.
	probe liveMapper
}

// benchClient is one closed-loop generator client: a dfsc.Client with its
// own mapper connection and directory, plus the wrapper set that times
// its calls in a traced pass (nil otherwise).
type benchClient struct {
	cli    *dfsc.Client
	dir    *live.Directory
	stream dfsc.Streamer
	lt     *layerTracer
}

// build stands up the deployment for spec: files [0, spec.files) are
// placed on degree random RMs each; catalog files beyond them exist for
// uploads. traced attaches tracer to the servers and clients and wraps
// each client's mapper, directory and streamer.
func build(spec *liveSpec, seed uint64, catalogFiles int, traced bool, ringSize int) (*deployment, error) {
	master := rng.New(seed).Split("perfbench/" + spec.name)
	catCfg := catalog.DefaultConfig()
	catCfg.NumFiles = catalogFiles
	cat, err := catalog.Generate(catCfg, master.Split("catalog"))
	if err != nil {
		return nil, err
	}
	// The catalog draws bitrates, durations and Zipf popularity; the
	// workload fixes the file size, which sets the data-plane share.
	for i := 0; i < cat.Len(); i++ {
		cat.File(ids.FileID(i)).Size = units.Size(spec.fileSize)
	}
	rmIDs := make([]ids.RMID, spec.rms)
	for i := range rmIDs {
		rmIDs[i] = ids.RMID(i + 1)
	}
	placement, err := catalog.StaticRandom(cat, rmIDs, spec.degree, master.Split("placement"))
	if err != nil {
		return nil, err
	}

	d := &deployment{
		spec:  spec,
		cat:   cat,
		disks: make(map[ids.RMID]*vdisk.Disk),
		sched: live.NewWallScheduler(1),
		tmet:  transport.NewMetrics(telemetry.NewRegistry()),
	}
	if traced {
		d.tracer = trace.New(trace.Options{Actor: "perfbench", RingSize: ringSize})
	}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	var mmAddrs []string
	if spec.shards > 0 {
		for i := 0; i < spec.shards; i++ {
			shard, err := live.NewMMShard(i, spec.shards, spec.shardRep, mm.LivenessConfig{})
			if err != nil {
				return nil, err
			}
			d.shards = append(d.shards, shard)
			srv, err := live.NewMMServer(shard, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			d.mmSrvs = append(d.mmSrvs, srv)
			mmAddrs = append(mmAddrs, srv.Addr())
		}
		for _, shard := range d.shards {
			if err := shard.DialPeers(mmAddrs, transport.DefaultConfig()); err != nil {
				return nil, err
			}
		}
	} else {
		srv, err := live.NewMMServer(mm.New(), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.mmSrvs = append(d.mmSrvs, srv)
		mmAddrs = append(mmAddrs, srv.Addr())
	}
	for _, srv := range d.mmSrvs {
		srv.SetTracer(d.tracer)
	}
	// dialMapper connects a mapper to the MM and closes it on teardown.
	dialMapper := func(cfg transport.Config) (liveMapper, error) {
		var m interface {
			liveMapper
			Close() error
		}
		var err error
		if spec.shards > 0 {
			m, err = live.DialShardMapper(mmAddrs, spec.shardRep, cfg)
		} else {
			m, err = live.DialMMConfig(mmAddrs[0], cfg)
		}
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() { m.Close() })
		return m, nil
	}

	for _, id := range rmIDs {
		disk, err := vdisk.New(diskBytes, blkio.NewController(), fmt.Sprintf("vm%d", id), unthrottled, unthrottled)
		if err != nil {
			return nil, err
		}
		d.disks[id] = disk
		files := make(map[ids.FileID]rm.FileMeta)
		for _, f := range placement.FilesOn(id) {
			if int(f) >= spec.files {
				continue
			}
			meta := cat.File(f)
			files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
			if err := disk.Provision(live.FileName(f), meta.Size); err != nil {
				return nil, err
			}
		}
		mapper, err := dialMapper(transport.DefaultConfig())
		if err != nil {
			return nil, err
		}
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: unthrottled, StorageBytes: diskBytes},
			Scheduler:   d.sched,
			Mapper:      mapper,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       files,
		})
		if err != nil {
			return nil, err
		}
		srv, err := live.NewRMServer(node, disk, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.rmSrvs = append(d.rmSrvs, srv)
		srv.SetTracer(d.tracer)
		node.SetAddr(srv.Addr())
		if err := node.Register(); err != nil {
			return nil, fmt.Errorf("register %v: %w", id, err)
		}
		rmDir := live.NewDirectory(mapper)
		d.closers = append(d.closers, rmDir.Close)
		node.SetDirectory(rmDir)
	}

	tcfg := transport.DefaultConfig()
	tcfg.Metrics = d.tmet
	for i := 0; i < spec.clients; i++ {
		mapper, err := dialMapper(tcfg)
		if err != nil {
			return nil, err
		}
		dir := live.NewDirectoryConfig(mapper, tcfg)
		d.closers = append(d.closers, dir.Close)
		bc := &benchClient{dir: dir, stream: dir}
		var cliMapper ecnp.Mapper = mapper
		var cliDir ecnp.Directory = dir
		if traced {
			bc.lt = &layerTracer{}
			cliMapper = &tracedMapper{inner: mapper, t: bc.lt}
			td := &tracedDirectory{inner: dir, t: bc.lt}
			cliDir, bc.stream = td, td
		}
		bc.cli, err = dfsc.New(dfsc.Options{
			ID:        ids.DFSCID(i + 1),
			Mapper:    cliMapper,
			Directory: cliDir,
			Scheduler: d.sched,
			Catalog:   cat,
			Policy:    selection.RemOnly,
			Scenario:  qos.Firm,
			Rand:      master.Split(fmt.Sprintf("dfsc/%d", i)),
			Fanout:    dfsc.Fanout{Concurrent: true, BidTimeout: negotiationTimeout},
			Tracer:    d.tracer,
		})
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, bc)
	}
	if d.probe, err = dialMapper(transport.DefaultConfig()); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// warmChecksums builds every provisioned file's checksum memo, on two
// goroutines, so no timed read pays a first whole-file hash.
func (d *deployment) warmChecksums() error {
	type job struct {
		disk *vdisk.Disk
		name string
	}
	jobs := make(chan job)
	errs := make(chan error, 2) // one slot per worker: each sends at most once
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := j.disk.Checksum(j.name); err != nil {
					errs <- err
					for range jobs {
					}
					return
				}
			}
		}()
	}
	for _, disk := range d.disks {
		for _, name := range disk.List() {
			jobs <- job{disk, name}
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

// dialAll resolves every RM on every client so the pools are dialled
// before timing.
func (d *deployment) dialAll() error {
	for _, c := range d.clients {
		for id := range d.disks {
			if _, ok := c.dir.Provider(id); !ok {
				return fmt.Errorf("client cannot resolve %v", id)
			}
		}
	}
	return nil
}

// close tears the deployment down: clients first, then RMs, then the MM.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	for _, s := range d.rmSrvs {
		s.Close()
	}
	for _, s := range d.shards {
		s.ClosePeers()
	}
	for _, s := range d.mmSrvs {
		s.Close()
	}
	d.sched.Stop()
}

// throttleWait sums the blkio throttle delay over every disk.
func (d *deployment) throttleWait() float64 {
	var s float64
	for _, disk := range d.disks {
		s += disk.Controller().Stats().ThrottleWaitSec
	}
	return s
}
