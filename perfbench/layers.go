package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/multirail"
)

// counters is a snapshot of every public counter the per-layer metrics
// are differences of: engine and rail stats of both nodes, the trace
// event counts, and the process's allocation, GC and CPU totals.
type counters struct {
	at         time.Duration
	eng        []multirail.EngineStats
	rails      [][]multirail.FabricStats
	containers uint64 // EagerSent trace events: one per eager container
	mem        runtime.MemStats
	cpu        time.Duration // user + system CPU of the process
}

func snapCounters(c *multirail.Cluster) *counters {
	s := &counters{at: c.Now(), containers: c.TraceCounts(trace.EagerSent)}
	for n := 0; n < c.Nodes(); n++ {
		s.eng = append(s.eng, c.EngineStats(n))
		s.rails = append(s.rails, c.RailStats(n))
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// delta is what happened between two snapshots of one cluster.
type delta struct {
	a, b *counters
	c    *multirail.Cluster
}

func (d delta) elapsed() time.Duration { return d.b.at - d.a.at }

// engine sums an EngineStats field over both nodes.
func (d delta) engine(f func(multirail.EngineStats) uint64) float64 {
	var v uint64
	for n := range d.b.eng {
		v += f(d.b.eng[n]) - f(d.a.eng[n])
	}
	return float64(v)
}

// workers returns progress-pool tasks and busy time over both nodes,
// and the pool size.
func (d delta) workers() (tasks float64, busy time.Duration, n int) {
	for node := range d.b.eng {
		for i, w := range d.b.eng[node].Workers {
			tasks += float64(w.Tasks - d.a.eng[node].Workers[i].Tasks)
			busy += w.BusyTime - d.a.eng[node].Workers[i].BusyTime
			n++
		}
	}
	return tasks, busy, n
}

// railTotals sums RailStats differences over both nodes for rails of
// one kind ("" for all rails), returning the rail count too.
func (d delta) railTotals(kind string) (s multirail.FabricStats, rails int) {
	for node := range d.b.rails {
		for r, b := range d.b.rails[node] {
			if kind != "" && d.c.RailKind(r) != kind {
				continue
			}
			a := d.a.rails[node][r]
			s.Messages += b.Messages - a.Messages
			s.Bytes += b.Bytes - a.Bytes
			s.BusyTime += b.BusyTime - a.BusyTime
			s.Reconnects += b.Reconnects - a.Reconnects
			s.Stalls += b.Stalls - a.Stalls
			rails++
		}
	}
	return s, rails
}

// gcPauseMax is the longest stop-the-world pause of a GC that ended
// between the snapshots (the runtime keeps the last 256).
func (d delta) gcPauseMax() time.Duration {
	var m time.Duration
	first := d.a.mem.NumGC + 1
	if d.b.mem.NumGC > 256 {
		first = max(first, d.b.mem.NumGC-255)
	}
	for g := first; g <= d.b.mem.NumGC; g++ {
		m = max(m, time.Duration(d.b.mem.PauseNs[(g+255)%256]))
	}
	return m
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterLayers fills the per-layer metrics that are ratios of counter
// differences over an untraced timed region of msgs messages.
func counterLayers(r *report, d delta, msgs int) {
	m := float64(msgs)
	el := d.elapsed().Seconds()
	eager := d.engine(func(s multirail.EngineStats) uint64 { return s.EagerSent })
	agg := d.engine(func(s multirail.EngineStats) uint64 { return s.EagerAggregated })
	r.layer("core.aggregated_frac", ratio(agg, eager), "frac", int(eager))
	r.layer("core.unexpected_per_msg", ratio(d.engine(func(s multirail.EngineStats) uint64 { return s.Unexpected }), m), "count/msg", msgs)
	r.layer("strategy.chunks_per_msg", ratio(d.engine(func(s multirail.EngineStats) uint64 { return s.ChunksSent }), m), "count/msg", msgs)

	tasks, busy, workers := d.workers()
	r.layer("progress.tasks_per_msg", ratio(tasks, m), "count/msg", msgs)
	r.layer("progress.busy_frac", ratio(busy.Seconds(), el*float64(workers)), "frac", workers)

	all, _ := d.railTotals("")
	for _, kind := range []struct{ layer, kind string }{{"shmnet", "shm"}, {"livenet", "tcp"}} {
		s, rails := d.railTotals(kind.kind)
		r.layer(kind.layer+".byte_share", ratio(float64(s.Bytes), float64(all.Bytes)), "frac", int(s.Messages))
		r.layer(kind.layer+".frames_per_msg", ratio(float64(s.Messages), m), "count/msg", msgs)
		r.layer(kind.layer+".busy_frac", ratio(s.BusyTime.Seconds(), el*float64(rails)), "frac", rails)
		if kind.kind == "shm" {
			r.layer("shmnet.stalls_per_kmsg", 1000*ratio(float64(s.Stalls), m), "count/kmsg", msgs)
		} else {
			r.layer("livenet.reconnects", float64(s.Reconnects), "count", rails)
		}
	}

	gcs := d.b.mem.NumGC - d.a.mem.NumGC
	r.layer("runtime.cpu_us_per_msg", ratio(float64((d.b.cpu-d.a.cpu).Microseconds()), m), "us", msgs)
	r.layer("runtime.gc_per_kmsg", 1000*ratio(float64(gcs), m), "count/kmsg", msgs)
	r.layer("runtime.gc_pause_us_max", float64(d.gcPauseMax().Nanoseconds())/1e3, "us", int(gcs))
}
