package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/rt"
	"repro/internal/sampling"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/multirail"
)

// Layer microbenchmarks, side by side: each group times alternatives
// of one layer's work on the same inputs (encode next to decode, a
// fresh split decision next to a plan-cache lookup). Input shapes come
// from the run itself: its message sizes, its mean packets per eager
// container, the chunks its cluster plans, and rail profiles reloaded
// from its own SaveSampling output.

// microBudget is the wall time each microbenchmark measures for.
const microBudget = 150 * time.Millisecond

// Sinks keep measured results alive so the compiler cannot drop the
// calls that produce them; they are typed so that storing a result
// allocates nothing.
var (
	sinkBytes   []byte
	sinkPackets []wire.Packet
	sinkChunks  []strategy.Chunk
	sinkPlan    *telemetry.Plan
)

// timeOps runs op(0), op(1), ... in batches of about 200µs for budget
// and returns the median over batches of nanoseconds per work unit; op
// returns how many units (1 per call, or KB processed) it did.
func timeOps(budget time.Duration, op func(i int) float64) float64 {
	batch, i := 1, 0
	for {
		t := time.Now()
		for j := 0; j < batch; j++ {
			op(i)
			i++
		}
		if time.Since(t) > 200*time.Microsecond {
			break
		}
		batch *= 2
	}
	var per []float64
	for end := time.Now().Add(budget); time.Now().Before(end); {
		t, units := time.Now(), 0.0
		for j := 0; j < batch; j++ {
			units += op(i)
			i++
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/units)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// shapes are the run-derived inputs of the microbenchmarks.
type shapes struct {
	slab     []byte
	sizes    []int              // the workload's message sizes, in sequence order
	plans    [][]strategy.Chunk // PlanFor(0, 1, n) of each size
	pkts     int                // packets per eager container (run mean, rounded)
	eagerCap int                // node 0's eager threshold: eager packets are no larger
	profiles []*sampling.RailProfile
}

// microShapesN is how many of the workload's messages the
// microbenchmarks cycle through.
const microShapesN = 256

func newShapes(c *multirail.Cluster, in *inputs, sampled []byte, pkts float64) (*shapes, error) {
	profiles, err := sampling.Load(bytes.NewReader(sampled))
	if err != nil {
		return nil, err
	}
	sh := &shapes{
		slab:     in.slab,
		pkts:     max(1, int(pkts+0.5)),
		eagerCap: max(1, c.EagerThreshold(0, 1)),
		profiles: profiles,
	}
	for i := 0; i < microShapesN; i++ {
		n := in.size[i]
		sh.sizes = append(sh.sizes, n)
		sh.plans = append(sh.plans, c.PlanFor(0, 1, n))
	}
	return sh, nil
}

// microLayers runs the microbenchmarks and records their metrics.
func microLayers(r *report, sh *shapes) {
	// wire: eager containers shaped like the run's.
	containers := make([][]wire.Packet, microShapesN)
	frames := make([][]byte, microShapesN)
	for j := range containers {
		for k := 0; k < sh.pkts; k++ {
			n := min(sh.sizes[(j*sh.pkts+k)%microShapesN], sh.eagerCap)
			containers[j] = append(containers[j], wire.Packet{Tag: 1, MsgID: uint64(j*sh.pkts + k + 1), Payload: sh.slab[:n]})
		}
		frames[j] = wire.EncodeEagerID(0, uint64(j+1), 0, containers[j])
	}
	r.layer("wire.eager_encode_ns", timeOps(microBudget, func(i int) float64 {
		sinkBytes = wire.EncodeEagerID(0, uint64(i+1), 0, containers[i%microShapesN])
		return 1
	}), "ns", microShapesN)
	r.layer("wire.eager_decode_ns", timeOps(microBudget, func(i int) float64 {
		sinkPackets, _ = wire.DecodeEager(frames[i%microShapesN])
		return 1
	}), "ns", microShapesN)

	// wire: rendezvous data frames and reassembly over the planned chunks.
	recvBuf := make([]byte, len(sh.slab))
	r.layer("wire.data_encode_ns_per_KB", timeOps(microBudget, func(i int) float64 {
		j := i % microShapesN
		n := sh.sizes[j]
		for _, ch := range sh.plans[j] {
			sinkBytes = wire.EncodeData(uint8(ch.Rail), 0, 1, uint64(i+1), ch.Offset, sh.slab[ch.Offset:ch.Offset+ch.Size], n)
		}
		return float64(n) / 1024
	}), "ns/KB", microShapesN)
	r.layer("wire.reassembly_add_ns_per_KB", timeOps(microBudget, func(i int) float64 {
		j := i % microShapesN
		n := sh.sizes[j]
		re, err := wire.NewReassembly(uint64(i+1), recvBuf[:n], n)
		if err != nil {
			panic(err)
		}
		for _, ch := range sh.plans[j] {
			if _, err := re.Add(ch.Offset, sh.slab[ch.Offset:ch.Offset+ch.Size]); err != nil {
				panic(err)
			}
		}
		return float64(n) / 1024
	}), "ns/KB", microShapesN)

	// strategy vs telemetry: a fresh split decision on the sampled
	// profiles next to the plan-cache lookup that would replace it.
	views := make([]strategy.RailView, len(sh.profiles))
	for i, p := range sh.profiles {
		views[i] = strategy.RailView{Index: i, Est: p, EagerMax: p.EagerMax}
	}
	r.layer("strategy.split_fresh_ns", timeOps(microBudget, func(i int) float64 {
		sinkChunks = strategy.HeteroSplit{}.Split(sh.sizes[i%microShapesN], 0, views)
		return 1
	}), "ns", microShapesN)
	cache := telemetry.NewCache(0)
	keys := make([]telemetry.PlanKey, microShapesN)
	for j, n := range sh.sizes {
		keys[j] = telemetry.PlanKey{Dest: 1, Bucket: telemetry.SizeBucket(n)}
		cache.Put(keys[j], telemetry.NewPlan("hetero-split", strategy.HeteroSplit{}.Split(n, 0, views), n))
	}
	r.layer("telemetry.cache_get_ns", timeOps(microBudget, func(i int) float64 {
		sinkPlan, _ = cache.Get(keys[i%microShapesN])
		return 1
	}), "ns", microShapesN)
	r.layer("telemetry.cache_hit_path_ns", timeOps(microBudget, func(i int) float64 {
		j := i % microShapesN
		if p, ok := cache.Get(keys[j]); ok {
			sinkChunks = p.ChunksFor(sh.sizes[j])
		}
		return 1
	}), "ns", microShapesN)

	// telemetry: the live estimates an adaptive cluster splits over. A
	// tracker primed with the run's profiles folds in one outcome per
	// planned chunk, each the profile's estimate scaled by a factor
	// cycling over 0.6-1.4 so that the drift detector refits; then the
	// split is timed over the warm estimators. One goroutine does both,
	// so the estimates hold still while a split reads them.
	priors := make([]strategy.Estimator, len(sh.profiles))
	for i, p := range sh.profiles {
		priors[i] = p
	}
	tr, err := telemetry.NewTracker(rt.NewLive(), telemetry.Config{Peers: 1, Rails: len(priors)}, priors)
	if err != nil {
		panic(err)
	}
	type outcome struct {
		rail, size int
		d          time.Duration
	}
	var outcomes []outcome
	for _, plan := range sh.plans {
		for _, ch := range plan {
			f := 0.6 + 0.1*float64(len(outcomes)%9)
			outcomes = append(outcomes, outcome{ch.Rail, ch.Size, time.Duration(f * float64(priors[ch.Rail].Estimate(ch.Size)))})
		}
	}
	r.layer("telemetry.observe_ns", timeOps(microBudget, func(i int) float64 {
		o := outcomes[i%len(outcomes)]
		tr.Observe(0, o.rail, o.size, o.d)
		return 1
	}), "ns", len(outcomes))
	st := tr.Stats()
	fmt.Printf("# telemetry replay: observations=%d refits=%d epoch=%d\n", st.Observations, st.Refits, st.Epoch)
	live := make([]strategy.RailView, len(views))
	for i, v := range views {
		live[i] = v
		live[i].Est = tr.Estimator(0, i, priors[i])
	}
	r.layer("telemetry.split_live_ns", timeOps(microBudget, func(i int) float64 {
		sinkChunks = strategy.HeteroSplit{}.Split(sh.sizes[i%microShapesN], 0, live)
		return 1
	}), "ns", microShapesN)
}

// splitDecision times the live Cluster.PlanFor over the workload's own
// sizes and returns the per-call durations.
func splitDecision(c *multirail.Cluster, sizes []int) []int64 {
	out := make([]int64, 0, len(sizes))
	for _, n := range sizes {
		t := c.Now()
		sinkChunks = c.PlanFor(0, 1, n)
		out = append(out, int64(c.Now()-t))
	}
	return out
}
