package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The registry naming scheme the instrumented tiers follow. The bench-report
// builder keys off these prefixes, so they are part of the metrics API.
const (
	// APIOpPrefix + <OpName> + {".seconds"|".count"|".errors"} — per API
	// operation latency histogram and outcome counters (apiserver).
	APIOpPrefix = "api.op."
	// RPCPrefix + <dal.name> + ".seconds" — per-RPC service-time histograms;
	// RPCClassPrefix + <class> + ".seconds" aggregates them by paper class.
	RPCPrefix      = "rpc."
	RPCClassPrefix = "rpc.class."
	// ShardPrefix + <i> + {".reads"|".writes"} — per-shard op counters;
	// + {".read_hold.seconds"|".write_hold.seconds"} — lock hold times.
	ShardPrefix = "meta.shard."
	// FaultsPrefix + {"injected"|"shed"|"sso_shed"|"retried"|
	// "retry_succeeded"} — the apiserver's fault-injection /
	// admission-control / SSO-bucket / client-retry counters, folded into
	// the report's faults section.
	FaultsPrefix = "faults."
	// WALPrefix + {"appends"|"snapshots"|"replayed"|"torn_bytes_dropped"|
	// "errors"|"journaled"} — the durable metadata tier's journal activity.
	WALPrefix = "wal."
	// ReplicationPrefix + {"published"|"applied"|"lww_skipped"|
	// "revoked_blocked"|"reads.local"|"reads.remote"|"reads.stale"} counters,
	// + "backlog.depth" gauge, + "lag.epochs" histogram — the cross-region
	// metadata replication tier.
	ReplicationPrefix = "repl."
)

// OpStats is one operation class in a benchmark report.
type OpStats struct {
	Count     uint64  `json:"count"`
	Errors    uint64  `json:"errors,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec"`
	MeanMs    float64 `json:"mean_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// ShardBalance summarizes load spread across metadata shards — the Fig. 14
// balance analysis over live counters instead of the offline trace.
type ShardBalance struct {
	Reads  []uint64 `json:"reads"`
	Writes []uint64 `json:"writes"`
	// CV is the coefficient of variation of total per-shard ops; the paper
	// measured 4.9% long-term imbalance across U1's 10 shards.
	CV float64 `json:"cv"`
}

// HotPathStats calibrates one per-request hot path under contention: ops/sec
// from a single goroutine vs ops/sec with Workers goroutines hammering the
// same structure. Speedup = parallel/serial; > 1 means the path scales with
// cores, ≤ 1 means it serializes on a shared lock.
type HotPathStats struct {
	SerialOpsPerSec   float64 `json:"serial_ops_per_sec"`
	ParallelOpsPerSec float64 `json:"parallel_ops_per_sec"`
	Workers           int     `json:"workers"`
	Speedup           float64 `json:"speedup"`
}

// GeneratorStats calibrates end-to-end trace generation on the sharded
// simulation substrate: events per wall second with one generator shard
// (the bit-for-bit serial stream) vs one shard per core. Speedup =
// parallel/serial; > 1 means the sharded event loops scale with cores.
type GeneratorStats struct {
	Users                int     `json:"users"`
	Days                 int     `json:"days"`
	Workers              int     `json:"workers"`
	SerialEventsPerSec   float64 `json:"serial_events_per_sec"`
	ParallelEventsPerSec float64 `json:"parallel_events_per_sec"`
	Speedup              float64 `json:"speedup"`
}

// WALPolicyStats prices one fsync policy of the durable metadata tier:
// measured journal append throughput, the sync-per-append ratio of the
// policy's cadence, and the deterministic per-mutation sync cost the
// API dispatch charges to the request path.
type WALPolicyStats struct {
	AppendsPerSec  float64 `json:"appends_per_sec"`
	SyncsPerAppend float64 `json:"syncs_per_append"`
	SyncCostMs     float64 `json:"sync_cost_ms"`
}

// DurabilityStats is the report's durability section: the WAL priced under
// each fsync policy (per-op, group, async), keyed by policy name.
type DurabilityStats struct {
	Policies map[string]WALPolicyStats `json:"policies"`
}

// FaultStats is the report's fault-machinery section: how many requests the
// fault plan injected failures into, how many admission control shed (the
// per-op-class controller and the SSO-tier token bucket separately), and
// how much retried client traffic arrived (and recovered). Present only in
// runs where any of the counters fired.
type FaultStats struct {
	Injected       uint64 `json:"injected"`
	Shed           uint64 `json:"shed"`
	SSOShed        uint64 `json:"sso_shed,omitempty"`
	Retried        uint64 `json:"retried"`
	RetrySucceeded uint64 `json:"retry_succeeded"`
}

// ReplicationStats is the report's cross-region replication section:
// published vs applied record counts, conflict-rule skips, read routing
// (local replica vs remote owner, and how many local reads were provably
// stale), the backlog depth at snapshot time, and replication lag in epochs.
// Present only for runs with 2+ regions.
type ReplicationStats struct {
	Published    uint64  `json:"published"`
	Applied      uint64  `json:"applied"`
	LWWSkipped   uint64  `json:"lww_skipped,omitempty"`
	ReadsLocal   uint64  `json:"reads_local,omitempty"`
	ReadsRemote  uint64  `json:"reads_remote,omitempty"`
	ReadsStale   uint64  `json:"reads_stale,omitempty"`
	BacklogDepth int64   `json:"backlog_depth"`
	LagMeanEp    float64 `json:"lag_mean_epochs"`
	LagMaxEp     float64 `json:"lag_max_epochs"`
}

// PlacementStats records power-of-two-choices placement quality at one
// balancer shard count: after placing Sessions sessions across a fixed
// backend fleet, the most-loaded backend's session count against the even
// split. MaxOverMean = 1.0 is a perfect spread; the two-choices bound keeps
// it near 1 even as shard counts grow and each decision sees less state.
type PlacementStats struct {
	Shards      int     `json:"shards"`
	Backends    int     `json:"backends"`
	Sessions    int     `json:"sessions"`
	MaxLoad     uint64  `json:"max_load"`
	MeanLoad    float64 `json:"mean_load"`
	MaxOverMean float64 `json:"max_over_mean"`
}

// ScaleStats is the report's scale-campaign section: a generator-only run at
// populations far past the trace scale (the paper served 1.29M users),
// recording sustained event throughput, steady-state resident bytes per user
// (heap after a full GC, divided by the population), peak process RSS, and
// placement quality versus balancer shard count. Produced by cmd/u1scale;
// omitted by the plain bench producers.
type ScaleStats struct {
	Users   int   `json:"users"`
	Days    int   `json:"days"`
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
	// Compact records whether the run used the generator's low-memory
	// configuration (workload.Config.LowMem); DeltaLogLimit the per-volume
	// delta-log cap the cluster ran with (0 = the metadata default). Both
	// change the stream vs the golden configuration, so they are part of
	// the record.
	Compact       bool `json:"compact"`
	DeltaLogLimit int  `json:"delta_log_limit,omitempty"`

	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`

	HeapBytes    uint64  `json:"heap_bytes"`
	BytesPerUser float64 `json:"bytes_per_user"`
	PeakRSSBytes uint64  `json:"peak_rss_bytes,omitempty"`

	Placement []PlacementStats `json:"placement,omitempty"`
}

// ScenarioClassErrors is one op class's error accounting in a scenario
// report: how many operations the class saw and how many errored.
type ScenarioClassErrors struct {
	Ops    uint64  `json:"ops"`
	Errors uint64  `json:"errors"`
	Rate   float64 `json:"rate"`
}

// ScenarioStats is one named chaos scenario's report: the workload scale it
// ran at, the fault machinery's counters, error rates by shedding class, the
// per-op latency profile (serial runs only — sampled RPC durations are not
// reproducible under a parallel driver, so the runner omits them rather
// than publish numbers that vary run to run), replication counters when
// regions were on, the invariant verdict, and — for scenarios that run an
// unmitigated comparison leg — the baseline's stats nested inside.
type ScenarioStats struct {
	Description string `json:"description,omitempty"`
	Users       int    `json:"users"`
	Days        int    `json:"days"`
	Seed        int64  `json:"seed"`
	Workers     int    `json:"workers"`

	Sessions    uint64 `json:"sessions"`
	FailedAuths uint64 `json:"failed_auths"`
	TotalOps    uint64 `json:"total_ops"`
	TotalErrors uint64 `json:"total_errors"`

	Injected       uint64 `json:"injected"`
	Shed           uint64 `json:"shed"`
	SSOShed        uint64 `json:"sso_shed"`
	Retried        uint64 `json:"retried"`
	RetrySucceeded uint64 `json:"retry_succeeded"`
	// AuthOverloaded counts requests the SSO back-end's capacity model
	// failed (goodput collapse under storm load).
	AuthOverloaded uint64 `json:"auth_overloaded"`

	// ErrorRates keys faults.Class names (data/metadata/session).
	ErrorRates map[string]ScenarioClassErrors `json:"error_rates"`
	// Ops carries per-op latency percentiles; present only for Workers=1
	// runs (see the type comment). OpsPerSec is zero: scenario reports carry
	// no wall-clock, for determinism.
	Ops map[string]OpStats `json:"ops,omitempty"`
	// WALJournaled counts mutations charged a journal sync (durable runs).
	WALJournaled uint64 `json:"wal_journaled,omitempty"`
	// Replication carries the cross-region counters (multi-region runs).
	Replication *ReplicationStats `json:"replication,omitempty"`

	// Invariant is "pass" or the violated invariant's description.
	Invariant string `json:"invariant"`
	// Baseline is the unmitigated comparison leg, when the scenario has one.
	Baseline *ScenarioStats `json:"baseline,omitempty"`
}

// BenchReport is the machine-readable benchmark result (BENCH_*.json): the
// perf trajectory record CI archives on every run.
type BenchReport struct {
	Schema      string  `json:"schema"`
	Users       int     `json:"users"`
	Days        int     `json:"days"`
	WallSeconds float64 `json:"wall_seconds"`
	// OpsPerSec is harness throughput: total API operations driven through
	// the back-end per wall-clock second of generation.
	OpsPerSec float64 `json:"ops_per_sec"`
	TotalOps  uint64  `json:"total_ops"`
	// Ops holds per-API-operation latency/throughput; latencies are the
	// simulated service times of the calibrated model, so they track the
	// paper's Figs. 12–13 rather than host speed.
	Ops map[string]OpStats `json:"ops"`
	// RPCClasses aggregates DAL service times by paper class
	// (read/write/cascade).
	RPCClasses map[string]OpStats `json:"rpc_classes"`
	Shards     ShardBalance       `json:"shards"`
	// HotPaths records contended-throughput calibration of the per-request
	// hot paths (rpc sampling, notify fan-out, balancer placement), measured
	// by internal/hotpath and keyed by path name.
	HotPaths map[string]HotPathStats `json:"hot_paths,omitempty"`
	// Generator records serial-vs-parallel trace-generation throughput on
	// the sharded simulation substrate (internal/hotpath.MeasureGenerator).
	Generator *GeneratorStats `json:"generator,omitempty"`
	// Faults summarizes fault injection, load shedding and client retries;
	// omitted for failure-free runs.
	Faults *FaultStats `json:"faults,omitempty"`
	// Durability prices the metadata WAL's fsync policies (measured by
	// internal/hotpath.MeasureDurability); omitted by producers predating the
	// durable tier.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication summarizes the cross-region replication tier; omitted for
	// single-region runs.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Scenarios carries per-scenario chaos reports keyed by catalog name
	// (written by cmd/u1chaos); omitted by the plain bench producers.
	Scenarios map[string]ScenarioStats `json:"scenarios,omitempty"`
	// Scale carries the million-user scale campaign's record (written by
	// cmd/u1scale); omitted by the plain bench producers.
	Scale *ScaleStats `json:"scale,omitempty"`
	// Counters carries the full counter snapshot for trend diffing.
	Counters map[string]uint64 `json:"counters"`
}

// BenchSchema identifies the report format.
const BenchSchema = "u1-bench/1"

// BuildBenchReport derives a report from a registry snapshot. wallSeconds is
// the wall-clock duration of the measured run; users/days describe the
// workload scale.
func BuildBenchReport(snap Snapshot, wallSeconds float64, users, days int) BenchReport {
	rep := BenchReport{
		Schema:      BenchSchema,
		Users:       users,
		Days:        days,
		WallSeconds: wallSeconds,
		Ops:         make(map[string]OpStats),
		RPCClasses:  make(map[string]OpStats),
		Counters:    snap.Counters,
	}

	opStats := func(hist HistogramSnapshot, count, errs uint64) OpStats {
		st := OpStats{
			Count:  count,
			Errors: errs,
			MeanMs: hist.Mean * 1e3,
			P50Ms:  hist.P50 * 1e3,
			P95Ms:  hist.P95 * 1e3,
			P99Ms:  hist.P99 * 1e3,
		}
		if wallSeconds > 0 {
			st.OpsPerSec = float64(count) / wallSeconds
		}
		return st
	}

	for name, hist := range snap.Histograms {
		switch {
		case strings.HasPrefix(name, APIOpPrefix) && strings.HasSuffix(name, ".seconds"):
			op := strings.TrimSuffix(strings.TrimPrefix(name, APIOpPrefix), ".seconds")
			count := snap.Counters[APIOpPrefix+op+".count"]
			if count == 0 {
				count = hist.Count
			}
			rep.Ops[op] = opStats(hist, count, snap.Counters[APIOpPrefix+op+".errors"])
			rep.TotalOps += count
		case strings.HasPrefix(name, RPCClassPrefix) && strings.HasSuffix(name, ".seconds"):
			class := strings.TrimSuffix(strings.TrimPrefix(name, RPCClassPrefix), ".seconds")
			rep.RPCClasses[class] = opStats(hist, hist.Count, 0)
		}
	}
	if wallSeconds > 0 {
		rep.OpsPerSec = float64(rep.TotalOps) / wallSeconds
	}

	rep.Shards = shardBalance(snap.Counters)
	f := FaultStats{
		Injected:       snap.Counters[FaultsPrefix+"injected"],
		Shed:           snap.Counters[FaultsPrefix+"shed"],
		SSOShed:        snap.Counters[FaultsPrefix+"sso_shed"],
		Retried:        snap.Counters[FaultsPrefix+"retried"],
		RetrySucceeded: snap.Counters[FaultsPrefix+"retry_succeeded"],
	}
	if f != (FaultStats{}) {
		rep.Faults = &f
	}
	repl := ReplicationStats{
		Published:    snap.Counters[ReplicationPrefix+"published"],
		Applied:      snap.Counters[ReplicationPrefix+"applied"],
		LWWSkipped:   snap.Counters[ReplicationPrefix+"lww_skipped"],
		ReadsLocal:   snap.Counters[ReplicationPrefix+"reads.local"],
		ReadsRemote:  snap.Counters[ReplicationPrefix+"reads.remote"],
		ReadsStale:   snap.Counters[ReplicationPrefix+"reads.stale"],
		BacklogDepth: snap.Gauges[ReplicationPrefix+"backlog.depth"],
	}
	if lag, ok := snap.Histograms[ReplicationPrefix+"lag.epochs"]; ok && lag.Count > 0 {
		repl.LagMeanEp = lag.Mean
		repl.LagMaxEp = lag.Max
	}
	if repl != (ReplicationStats{}) {
		rep.Replication = &repl
	}
	return rep
}

// shardBalance folds meta.shard.<i>.reads/.writes counters into the balance
// summary.
func shardBalance(counters map[string]uint64) ShardBalance {
	type rw struct{ reads, writes uint64 }
	byIdx := make(map[int]rw)
	maxIdx := -1
	for name, v := range counters {
		if !strings.HasPrefix(name, ShardPrefix) {
			continue
		}
		rest := strings.TrimPrefix(name, ShardPrefix)
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			continue
		}
		idx, err := strconv.Atoi(rest[:dot])
		if err != nil {
			continue
		}
		e := byIdx[idx]
		switch rest[dot+1:] {
		case "reads":
			e.reads = v
		case "writes":
			e.writes = v
		default:
			continue
		}
		byIdx[idx] = e
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	var b ShardBalance
	if maxIdx < 0 {
		return b
	}
	b.Reads = make([]uint64, maxIdx+1)
	b.Writes = make([]uint64, maxIdx+1)
	totals := make([]float64, maxIdx+1)
	for idx, e := range byIdx {
		b.Reads[idx] = e.reads
		b.Writes[idx] = e.writes
		totals[idx] = float64(e.reads + e.writes)
	}
	b.CV = coefficientOfVariation(totals)
	return b
}

func coefficientOfVariation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// WriteBenchReport writes the report to path as indented JSON.
func WriteBenchReport(path string, rep BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding bench report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("metrics: writing bench report: %w", err)
	}
	return nil
}

// SortedOpNames returns the report's op names in stable order, for printing.
func (r BenchReport) SortedOpNames() []string {
	names := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
