// Package hotpath measures the structures every request crosses — the RPC
// tier's service-time sampling, the notification broker's fan-out, and the
// gateway's placement (both the single-shard least-loaded heap and the
// sharded power-of-two-choices balancer) — first from a single goroutine,
// then with GOMAXPROCS goroutines contending on the same instance. The ratio
// of the two throughputs is the scaling record the BENCH_*.json reports
// carry: after the de-serialization of these paths (per-worker lockless
// RNGs, read-locked fan-out, heap-backed placement, per-shard heaps) the
// parallel rate must exceed the serial one; a ratio stuck at or below 1
// means a global lock crept back onto the request path.
//
// MeasureGenerator applies the same serial-vs-parallel comparison to the
// end-to-end trace generator: one sharded event loop per core against the
// bit-for-bit serial Workers=1 stream.
package hotpath

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"u1/internal/gateway"
	"u1/internal/metadata"
	"u1/internal/metrics"
	"u1/internal/notify"
	"u1/internal/protocol"
	"u1/internal/rpc"
	"u1/internal/server"
	"u1/internal/wal"
	"u1/internal/workload"
)

// Report keys for the measured paths (BenchReport.HotPaths).
const (
	RPCCall       = "rpc.call"
	NotifyPublish = "notify.publish"
	GatewayPlace  = "gateway.acquire_release"
	// GatewayPlaceSharded measures the power-of-two-choices balancer: the
	// same acquire/release cycle against independently locked shard heaps.
	GatewayPlaceSharded = "gateway.acquire_release.sharded"
)

// ShardedBalancerShards sizes the sharded-balancer fixture: enough shards
// that two random choices rarely collide, over a fleet large enough to
// populate them. Exported so the bench_test contention benchmark measures
// the exact configuration the BENCH_*.json hot-path section records.
const ShardedBalancerShards = 4

// ShardedBalancerFleet is the sharded fixture's backend fleet: one paper
// machine per process bank, wide enough to populate every shard.
func ShardedBalancerFleet() []string {
	fleet := make([]string, 0, 4*len(server.DefaultMachines))
	for i := 0; i < 4; i++ {
		for _, name := range server.DefaultMachines {
			fleet = append(fleet, fmt.Sprintf("%s-%d", name, i))
		}
	}
	return fleet
}

var t0 = time.Unix(1390000000, 0)

// Measure drives each hot path for ops operations (0 picks a default sized
// for a sub-second run per path) and returns per-path throughput stats. The
// fixtures are self-contained so the measurement never pollutes a live
// cluster's metrics registry.
func Measure(ops int) map[string]metrics.HotPathStats {
	if ops <= 0 {
		ops = 1 << 18
	}
	workers := runtime.GOMAXPROCS(0)
	out := make(map[string]metrics.HotPathStats, 4)

	// RPC tier: worker selection + per-class latency sampling + histogram
	// recording, with no metadata store access in the way (ObserveAuth is
	// the one RPC that touches nothing but the sampler).
	store := metadata.New(metadata.Config{Shards: 10})
	if _, err := store.CreateUser(1); err != nil {
		panic(err)
	}
	srv := rpc.NewServer(store, rpc.Config{Seed: 11})
	out[RPCCall] = run(ops, workers, func() { srv.ObserveAuth(1, t0, nil, nil) })

	// Notify tier: fan-out across the paper's six API machines. Tiny queues
	// keep the drop branch hot, so the measurement is pure fan-out cost
	// rather than consumer speed.
	broker := notify.NewBroker()
	for _, name := range server.DefaultMachines {
		broker.Register(name, 1)
	}
	out[NotifyPublish] = run(ops, workers, func() {
		broker.Publish(notify.Event{Kind: protocol.PushVolumeChanged, User: 1, Origin: server.DefaultMachines[0]})
	})

	// Gateway, single shard: one placement decision plus its release,
	// holding the heap at steady state — the exact least-loaded rule.
	bal := gateway.NewBalancer(server.DefaultMachines...)
	out[GatewayPlace] = run(ops, workers, func() {
		if lease, err := bal.Acquire(); err == nil {
			bal.Release(lease)
		}
	})

	// Gateway, sharded: the same cycle against per-shard heaps with
	// power-of-two-choices between them.
	sharded := gateway.NewShardedBalancer(ShardedBalancerShards, ShardedBalancerFleet()...)
	out[GatewayPlaceSharded] = run(ops, workers, func() {
		if lease, err := sharded.Acquire(); err == nil {
			sharded.Release(lease)
		}
	})
	return out
}

// run times ops executions of op single-threaded, then the same total split
// across workers goroutines, and folds both into HotPathStats.
func run(ops, workers int, op func()) metrics.HotPathStats {
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	start := time.Now()
	for i := 0; i < ops; i++ {
		op()
	}
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	serial := time.Since(start)

	var wg sync.WaitGroup
	per := ops / workers
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	start = time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op()
			}
		}()
	}
	wg.Wait()
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	parallel := time.Since(start)

	st := metrics.HotPathStats{Workers: workers}
	if serial > 0 {
		st.SerialOpsPerSec = float64(ops) / serial.Seconds()
	}
	if parallel > 0 {
		st.ParallelOpsPerSec = float64(per*workers) / parallel.Seconds()
	}
	if st.SerialOpsPerSec > 0 {
		st.Speedup = st.ParallelOpsPerSec / st.SerialOpsPerSec
	}
	return st
}

// MeasurePlacement quantifies power-of-two-choices placement quality as the
// balancer's shard count grows: for each count it places sessions leases
// across the standard fleet (never releasing, so load accumulates as in a
// connection storm) and reports the most-loaded backend against the even
// split. One shard is the exact least-loaded rule — max/mean pinned at ~1 —
// and each doubling trades a little balance for less lock contention; the
// two-choices bound keeps the ratio near 1 instead of the O(log n / log log
// n) drift of single random choice. sessions ≤ 0 picks a default; shard
// counts < 1 are skipped.
func MeasurePlacement(sessions int, shardCounts []int) []metrics.PlacementStats {
	if sessions <= 0 {
		sessions = 1 << 16
	}
	fleet := ShardedBalancerFleet()
	out := make([]metrics.PlacementStats, 0, len(shardCounts))
	for _, shards := range shardCounts {
		if shards < 1 {
			continue
		}
		bal := gateway.NewShardedBalancer(shards, fleet...)
		loads := make(map[string]uint64, len(fleet))
		for i := 0; i < sessions; i++ {
			lease, err := bal.Acquire()
			if err != nil {
				break
			}
			loads[lease.Backend]++
		}
		st := metrics.PlacementStats{
			Shards:   shards,
			Backends: len(fleet),
			Sessions: sessions,
			MeanLoad: float64(sessions) / float64(len(fleet)),
		}
		for _, n := range loads {
			if n > st.MaxLoad {
				st.MaxLoad = n
			}
		}
		if st.MeanLoad > 0 {
			st.MaxOverMean = float64(st.MaxLoad) / st.MeanLoad
		}
		out = append(out, st)
	}
	return out
}

// MeasureGenerator times end-to-end trace generation — population build,
// per-shard event loops, the full back-end under every event — once with
// Workers=1 (the serial stream) and once with one shard per core, each
// against its own fresh cluster. users/days ≤ 0 pick a smoke-sized default.
func MeasureGenerator(users, days int) metrics.GeneratorStats {
	if users <= 0 {
		users = 150
	}
	if days <= 0 {
		days = 3
	}
	workers := runtime.GOMAXPROCS(0)
	st := metrics.GeneratorStats{Users: users, Days: days, Workers: workers}

	st.SerialEventsPerSec = generationRate(users, days, 1)
	if workers == 1 {
		// One core: the parallel configuration is the serial one.
		st.ParallelEventsPerSec = st.SerialEventsPerSec
	} else {
		st.ParallelEventsPerSec = generationRate(users, days, workers)
	}
	if st.SerialEventsPerSec > 0 {
		st.Speedup = st.ParallelEventsPerSec / st.SerialEventsPerSec
	}
	return st
}

// MeasureDurability prices the metadata WAL under each fsync policy: appends
// per second against a throwaway journal in dir (a temp directory the caller
// owns), the measured sync-per-append ratio of the policy's cadence, and the
// deterministic per-mutation cost the API dispatch charges. ops ≤ 0
// picks a default small enough that even per-op fsync finishes in seconds.
func MeasureDurability(dir string, ops int) (metrics.DurabilityStats, error) {
	if ops <= 0 {
		ops = 512
	}
	payload := make([]byte, 256)
	st := metrics.DurabilityStats{Policies: make(map[string]metrics.WALPolicyStats, 3)}
	for _, policy := range wal.Policies() {
		log, err := wal.Open(filepath.Join(dir, policy.String()), wal.Options{Policy: policy})
		if err != nil {
			return st, err
		}
		//u1:allow wallclock hotpath benchmarks measure real execution speed by design
		start := time.Now()
		for i := 0; i < ops; i++ {
			if _, err := log.Append(payload); err != nil {
				log.Close() //nolint:errcheck
				return st, err
			}
		}
		//u1:allow wallclock hotpath benchmarks measure real execution speed by design
		elapsed := time.Since(start)
		appends, syncs := log.Stats()
		if err := log.Close(); err != nil {
			return st, err
		}
		ps := metrics.WALPolicyStats{SyncCostMs: float64(policy.SyncCost()) / float64(time.Millisecond)}
		if elapsed > 0 {
			ps.AppendsPerSec = float64(appends) / elapsed.Seconds()
		}
		if appends > 0 {
			ps.SyncsPerAppend = float64(syncs) / float64(appends)
		}
		st.Policies[policy.String()] = ps
	}
	return st, nil
}

// generationRate runs one generation and returns events per wall second.
func generationRate(users, days, shards int) float64 {
	cluster := server.NewCluster(server.Config{Seed: 10})
	g := workload.New(workload.Config{
		Users: users, Days: days, Seed: 10, Workers: shards,
		Attacks: []workload.Attack{},
	}, cluster)
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	start := time.Now()
	g.Run()
	//u1:allow wallclock hotpath benchmarks measure real execution speed by design
	wall := time.Since(start)
	if wall <= 0 {
		return 0
	}
	return float64(g.Engine().Executed()) / wall.Seconds()
}
