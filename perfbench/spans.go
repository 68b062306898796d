package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/multirail"
)

// msgSpan is one message's timeline: the engine's trace events of the
// message (first occurrence, except the last ChunkPosted) and the load
// actor's stamps around its calls, all on the cluster clock. Zero means
// the event did not happen.
type msgSpan struct {
	id uint64

	// Engine events (Event.At).
	submit, eagerSent, rtsSent, ctsSent, split, lastChunk time.Duration
	delivered, completed, acked                           time.Duration

	stamps
}

// stamps are the load actor's marks for one message on Cluster.Now():
// its spans are Irecv [irecv0, isend0), Isend [isend0, isend1) and the
// wait for the receive [wait0, done).
type stamps struct {
	irecv0, isend0, isend1, wait0, done time.Duration
}

// Stages are intervals between a message's events. Eager messages run
// Submit → EagerSent → Delivered → Acked; rendezvous messages run
// Submit → RTSSent → CTSSent → Decision → last ChunkPosted → Delivered
// → Acked. EagerSent is stamped once the flushing worker has picked the
// rail and encoded the container, so for eager messages it is the
// decision point, and decision→sent is EagerSent → Completed: the
// transport write on that worker. Only the first packet of an
// aggregated container carries EagerSent, so eager stages other than
// delivered→acked are sampled from container heads only.
const (
	stSubmitDecision = iota
	stDecisionSent
	stSentDelivered
	stHandshake
	stCTSDecision
	stDeliveredAcked
	stSubmitCompleted
	stSubmitAcked
	stOnewaySelf
	numStages
)

var stageNames = [numStages]string{
	"submit_decision", "decision_sent", "sent_delivered", "handshake",
	"cts_decision", "delivered_acked", "submit_completed", "submit_acked",
	"oneway_self",
}

// interval is [from, to); ok only when both ends happened in order.
type interval struct{ from, to time.Duration }

func iv(from, to time.Duration) interval { return interval{from, to} }

func (i interval) ok() bool { return i.from > 0 && i.to >= i.from }

// stages computes s's stage intervals, indexed by st*; the one-way
// self time is not an interval and stays empty.
func (s *msgSpan) stages() [numStages]interval {
	var st [numStages]interval
	switch {
	case s.eagerSent > 0:
		st[stSubmitDecision] = iv(s.submit, s.eagerSent)
		st[stDecisionSent] = iv(s.eagerSent, s.completed)
		st[stSentDelivered] = iv(s.eagerSent, s.delivered)
	case s.rtsSent > 0:
		st[stSubmitDecision] = iv(s.submit, s.rtsSent)
		st[stHandshake] = iv(s.rtsSent, s.ctsSent)
		st[stCTSDecision] = iv(s.ctsSent, s.split)
		st[stDecisionSent] = iv(s.split, s.lastChunk)
		st[stSentDelivered] = iv(s.lastChunk, s.delivered)
	}
	st[stDeliveredAcked] = iv(s.delivered, s.acked)
	st[stSubmitCompleted] = iv(s.submit, s.completed)
	st[stSubmitAcked] = iv(s.submit, s.acked)
	return st
}

// onewaySelf is the self time of the load actor's one-way span, Isend call
// to observed receive completion: the span minus what its children —
// the Isend call and the engine's one-way stages — cover. What is left
// is the time from delivery until the load actor sees it.
func (s *msgSpan) onewaySelf(st [numStages]interval) (time.Duration, bool) {
	if s.isend0 == 0 || s.done < s.isend0 {
		return 0, false
	}
	return selfTime(iv(s.isend0, s.done), []interval{iv(s.isend0, s.isend1),
		st[stSubmitDecision], st[stHandshake], st[stCTSDecision],
		st[stDecisionSent], st[stSentDelivered]}), true
}

// selfTime is parent's duration minus the part of it covered by the
// union of children.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if !c.ok() {
			continue
		}
		c.from, c.to = max(c.from, parent.from), min(c.to, parent.to)
		if c.to > c.from {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].from < cs[j].from })
	covered, end := time.Duration(0), parent.from
	for _, c := range cs {
		if c.to <= end {
			continue
		}
		covered += c.to - max(c.from, end)
		end = c.to
	}
	return parent.to - parent.from - covered
}

// spanRing must exceed the message ids a run can have outstanding
// (ids are shared with eager containers, and the window is 64).
const spanRing = 1 << 14

// keepSpans is how many finished spans are kept verbatim for the span
// file; every span feeds the stage samples.
const keepSpans = 20000

// spanTracer is the benchmark's Config.Tracer. The stock collector
// stops at 64Ki events, which a long run overflows, so this one folds
// events online: each message of node 0 owns a ring slot keyed by its
// message id, and a slot's span is finished into per-stage samples
// when a later message reuses the slot or the run ends.
type spanTracer struct {
	on atomic.Bool

	mu       sync.Mutex
	ring     []msgSpan
	stride   int // every stride-th finished span feeds the samples
	finished int
	samples  [numStages][]uint32
	kept     []msgSpan
}

// maxStageSamples bounds each stage's sample count; a faster run
// samples every stride-th message instead of every message.
const maxStageSamples = 1 << 18

func newSpanTracer() *spanTracer {
	return &spanTracer{ring: make([]msgSpan, spanRing), stride: 1}
}

// slot returns id's span, finishing whatever span held the slot before.
// Callers hold mu.
func (t *spanTracer) slot(id uint64) *msgSpan {
	s := &t.ring[id%spanRing]
	if s.id != id {
		if s.id != 0 {
			t.finish(s)
		}
		*s = msgSpan{id: id}
	}
	return s
}

// Record implements multirail.Tracer.
func (t *spanTracer) Record(e multirail.TraceEvent) {
	if !t.on.Load() || e.MsgID == 0 || e.Origin != 0 {
		return
	}
	t.mu.Lock()
	s := t.slot(e.MsgID)
	first := func(p *time.Duration) {
		if *p == 0 {
			*p = e.At
		}
	}
	switch e.Kind {
	case trace.Submit:
		first(&s.submit)
	case trace.EagerSent:
		first(&s.eagerSent)
	case trace.RTSSent:
		first(&s.rtsSent)
	case trace.CTSSent:
		first(&s.ctsSent)
	case trace.Decision:
		first(&s.split)
	case trace.ChunkPosted:
		s.lastChunk = max(s.lastChunk, e.At)
	case trace.Delivered:
		first(&s.delivered)
	case trace.Completed:
		first(&s.completed)
	case trace.Acked:
		first(&s.acked)
	}
	t.mu.Unlock()
}

// stamp records the load actor's stamps for message id.
func (t *spanTracer) stamp(id uint64, st stamps) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.slot(id).stamps = st
	t.mu.Unlock()
}

func (t *spanTracer) finish(s *msgSpan) {
	if s.submit == 0 {
		return // began before tracing was switched on
	}
	if t.finished++; t.finished%t.stride != 0 {
		return
	}
	st := s.stages()
	for i, v := range st {
		if v.ok() {
			t.samples[i] = append(t.samples[i], ns(v.to-v.from))
		}
	}
	if self, ok := s.onewaySelf(st); ok {
		t.samples[stOnewaySelf] = append(t.samples[stOnewaySelf], ns(self))
	}
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, *s)
	}
}

// stop switches tracing off and finishes every open span.
func (t *spanTracer) stop() {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ring {
		if t.ring[i].id != 0 {
			t.finish(&t.ring[i])
			t.ring[i] = msgSpan{}
		}
	}
}

// write stores the kept spans, one message per line, times in ns of
// the cluster clock.
func (t *spanTracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "msg_id,irecv0,isend0,isend1,submit,eager_sent,rts_sent,cts_sent,split,last_chunk,delivered,completed,acked,wait0,done")
	for _, s := range t.kept {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", s.id,
			s.irecv0, s.isend0, s.isend1, s.submit, s.eagerSent, s.rtsSent, s.ctsSent, s.split, s.lastChunk,
			s.delivered, s.completed, s.acked, s.wait0, s.done)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
