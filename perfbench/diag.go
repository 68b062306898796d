package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/multirail"
)

// watchdog gives every operation a deadline and makes failures explain
// themselves. The load actor arms it with the Isend time of the message
// and the event it is about to wait for; a background goroutine checks
// the armed time against opDeadline. When the deadline passes it counts
// the operation as failed and fires the awaited event itself, which
// releases the load actor: a lost message costs its deadline, not the
// run. On the first failure of any kind the cluster's flight recorder,
// anomaly dumps, engine counters and rail states are printed, so a hang
// or a corrupted message leaves its forensic state in the output.
type watchdog struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	c       *multirail.Cluster // the cluster the load runs on
	armedAt time.Duration      // cluster-clock time of the awaited Isend
	armedEv rt.Event           // the awaited event; nil when idle
	missed  bool               // the armed wait was released by the deadline
	dumped  bool
	abort   func(reason string) // prints the failed result and exits

	stop chan struct{}
	done chan struct{}
}

func newWatchdog(processDeadline time.Duration, abort func(string)) *watchdog {
	d := &watchdog{abort: abort, stop: make(chan struct{}), done: make(chan struct{})}
	limit := time.Now().Add(processDeadline)
	go func() {
		defer close(d.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
			}
			if time.Now().After(limit) {
				why := fmt.Sprintf("run exceeded its %v process deadline", processDeadline)
				d.fail(why)
				d.abort(why)
			}
			d.check()
		}
	}()
	return d
}

// check releases the armed wait once it is past its deadline.
func (d *watchdog) check() {
	d.mu.Lock()
	ev, c := d.armedEv, d.c
	var late time.Duration
	if ev != nil {
		late = c.Now() - d.armedAt
	}
	if ev == nil || late <= opDeadline {
		d.mu.Unlock()
		return
	}
	d.armedEv, d.missed = nil, true
	d.mu.Unlock()
	d.fail(fmt.Sprintf("operation missed its %v deadline (waiting %v since its Isend)", opDeadline, late))
	ev.Fire()
}

// watch points the dumps at the cluster the next pass loads.
func (d *watchdog) watch(c *multirail.Cluster) {
	d.mu.Lock()
	d.c = c
	d.mu.Unlock()
}

// arm starts the deadline of a wait on ev for a message sent at isendAt.
func (d *watchdog) arm(isendAt time.Duration, ev rt.Event) {
	d.mu.Lock()
	d.armedAt, d.armedEv, d.missed = isendAt, ev, false
	d.mu.Unlock()
}

// disarm ends the wait and reports whether the deadline released it.
func (d *watchdog) disarm() (missed bool) {
	d.mu.Lock()
	missed = d.missed
	d.armedEv, d.missed = nil, false
	d.mu.Unlock()
	return missed
}

// fail counts one failed operation and dumps diagnostics for the first.
func (d *watchdog) fail(why string) {
	d.failed.Add(1)
	d.dump(why)
}

func (d *watchdog) close() {
	close(d.stop)
	<-d.done
}

// dump prints the forensic state of the watched cluster once per run.
func (d *watchdog) dump(why string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dumped {
		return
	}
	d.dumped = true
	fmt.Printf("# FAILURE: %s\n", why)
	c := d.c
	if c == nil {
		return
	}
	fmt.Printf("# cluster clock %v, transport error: %v\n", c.Now(), c.Err())
	for n := 0; n < c.Nodes(); n++ {
		st := c.EngineStats(n)
		fmt.Printf("# node %d engine: eager=%d aggregated=%d parallel=%d rdv=%d chunks=%d bytes=%d unexpected=%d failed_over=%d plan_hits=%d plan_misses=%d epoch=%d\n",
			n, st.EagerSent, st.EagerAggregated, st.EagerParallel, st.RdvSent, st.ChunksSent, st.BytesSent,
			st.Unexpected, st.FailedOver, st.PlanHits, st.PlanMisses, st.TelemetryEpoch)
		for i, sh := range st.Shards {
			if sh.Recvs > 0 || sh.Partials > 0 {
				fmt.Printf("#   shard %d: matched=%d unexpected=%d posted_recvs=%d partials=%d\n", i, sh.Matched, sh.Unexpected, sh.Recvs, sh.Partials)
			}
		}
		for i, wk := range st.Workers {
			fmt.Printf("#   worker %d: tasks=%d busy=%v queued=%d\n", i, wk.Tasks, wk.BusyTime, wk.Queued)
		}
		states := c.RailStates(n)
		for r, rs := range c.RailStats(n) {
			fmt.Printf("#   rail %d (%s) %v: frames=%d bytes=%d reconnects=%d stalls=%d\n",
				r, c.RailKind(r), states[r], rs.Messages, rs.Bytes, rs.Reconnects, rs.Stalls)
		}
	}
	f := c.Flight()
	events := f.Snapshot()
	const tail = 48
	fmt.Printf("# flight recorder: %d events recorded, %d overwritten; last %d:\n", f.TotalRecorded(), f.Overwritten(), min(tail, len(events)))
	for _, e := range events[max(0, len(events)-tail):] {
		fmt.Printf("#   %v\n", e)
	}
	anomalies := f.Anomalies()
	fmt.Printf("# anomalies: %d noted, %d retained\n", f.AnomalyTotal(), len(anomalies))
	for _, a := range anomalies {
		fmt.Printf("#   %v node %d: %s (%d events captured)\n", a.At, a.Node, a.Reason, len(a.Events))
	}
}
