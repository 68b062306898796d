package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/rt"
	"repro/multirail"
)

// workload is one seeded traffic pattern over one rail set. See
// README.md for why each exists and which layers it stresses.
type workload struct {
	name     string
	shmRails int
	tcpRails int
	minSize  int
	maxSize  int
	depth    int // Isends kept in flight by the one load actor
	tags     int // messages cycle over this many tags
}

var workloads = []workload{
	{name: "eager-latency", shmRails: 1, tcpRails: 2, minSize: 8, maxSize: 4 << 10, depth: 1, tags: 1},
	{name: "eager-rate", tcpRails: 2, minSize: 8, maxSize: 4 << 10, depth: 64, tags: 2},
	{name: "rdv-stripe", shmRails: 1, tcpRails: 2, minSize: 128 << 10, maxSize: 4 << 20, depth: 1, tags: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the cluster the workload runs on: two nodes in this
// process, live rails, the engine's defaults for everything else (the
// static sampled HeteroSplit).
func (w workload) config() multirail.Config {
	return multirail.Config{
		Fabric:   multirail.FabricTCP,
		ShmRails: w.shmRails,
		TCPRails: w.tcpRails,
	}
}

// seqLen is the length of the generated message sequence; longer runs
// cycle through it.
const seqLen = 1 << 16

// inputs is everything the seed determines: the message size sequence
// and the payload bytes. Message i carries slab[off[i]:off[i]+size[i]],
// so every received byte can be checked against its source.
type inputs struct {
	slab []byte
	size []int
	off  []int
}

// genInputs derives a workload's inputs from the seed alone. Sizes are
// log-uniform over [minSize, maxSize]; workloads with equal size ranges
// see the same sequence.
func genInputs(w workload, seed uint64) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x6d756c746972a11))
	in := &inputs{
		slab: make([]byte, 2*w.maxSize+64<<10),
		size: make([]int, seqLen),
		off:  make([]int, seqLen),
	}
	for i := 0; i < len(in.slab); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < len(in.slab); j++ {
			in.slab[i+j] = byte(v >> (8 * j))
		}
	}
	lo, hi := math.Log(float64(w.minSize)), math.Log(float64(w.maxSize)+1)
	for i := range in.size {
		n := int(math.Exp(lo + rng.Float64()*(hi-lo)))
		n = min(max(n, w.minSize), w.maxSize)
		in.size[i] = n
		in.off[i] = rng.IntN(len(in.slab) - n + 1)
	}
	return in
}

func (in *inputs) payload(i int) []byte {
	j := i & (seqLen - 1)
	return in.slab[in.off[j] : in.off[j]+in.size[j]]
}

// opDeadline bounds every operation: a message not received, or a send
// not acknowledged, this long after its Isend counts as failed (see
// watchdog). Operations normally take microseconds to milliseconds.
const opDeadline = 2 * time.Second

// passResult is what one closed-loop pass measured in its timed region.
type passResult struct {
	latNS   []uint32 // one-way Isend → receive completion, per message
	isendNS []uint32 // time inside Node.Isend, per message
	bytes   int64    // verified payload bytes
	windows []window // consecutive slices of the region
	next    int      // index of the first message the pass did not send
}

// A window is a stretch of the timed region at least minWindow long
// holding at least minWindowMsgs messages, so that its p99 has ten
// samples beyond it. End-to-end timings are medians over windows: a
// burst of outside load on the host slows a few windows, not the
// median.
type window struct {
	lo, hi int // latNS[lo:hi]
	dur    time.Duration
	bytes  int64
}

const (
	minWindow     = 500 * time.Millisecond
	minWindowMsgs = 1000
)

// ns stores a duration as a sample; operations are bounded by
// opDeadline, far below the 4.29s a uint32 holds.
func ns(d time.Duration) uint32 { return uint32(min(max(d, 0), math.MaxUint32)) }

func (p *passResult) msgs() int { return len(p.latNS) }

// recvSlot is one posted receive of the load actor.
type recvSlot struct {
	recv *multirail.RecvRequest
	tag  uint32
	buf  []byte
}

// sent is one message in flight.
type sent struct {
	idx    int
	req    *multirail.SendRequest
	irecv0 time.Duration // before its receive was posted
	isend0 time.Duration
	isend1 time.Duration
}

// loader runs a workload's closed loop on one cluster. One actor keeps
// `depth` messages in flight: it posts each message's receive, then
// its Isend, and before posting the next message it waits for the
// oldest posted receive and for the remote completion of the message
// that filled it. The engine matches by (source, tag) in completion
// order — concurrent messages on one tag may overtake each other — so
// a receive is checked against every message still in flight on its
// tag: it must equal one of them, byte for byte, and consumes it.
type loader struct {
	c     *multirail.Cluster
	w     workload
	in    *inputs
	dog   *watchdog
	spans *spanTracer // nil on untraced passes
	// region is called on the load actor when the timed region starts
	// (true) and ends (false), before any message of the next phase.
	region func(start bool)

	next     int               // message index of the next Isend
	tagBase  uint32            // moves past tags with an abandoned receive
	inFlight map[uint32][]sent // per tag, in Isend order
}

func (d *loader) post(s *recvSlot) {
	i := d.next
	d.next++
	s.tag = d.tagBase + uint32(i%d.w.tags)
	m := sent{idx: i, irecv0: d.c.Now()}
	s.recv = d.c.Node(1).Irecv(0, s.tag, s.buf)
	m.isend0 = d.c.Now()
	m.req = d.c.Node(0).Isend(1, s.tag, d.in.payload(i))
	m.isend1 = d.c.Now()
	if d.inFlight[s.tag] == nil {
		d.inFlight[s.tag] = make([]sent, 0, d.w.depth)
	}
	d.inFlight[s.tag] = append(d.inFlight[s.tag], m)
}

// await waits for ev under the watchdog's deadline for a message sent
// at isendAt; it reports false when the deadline released the wait.
func (d *loader) await(ctx multirail.Ctx, isendAt time.Duration, ev rt.Event) bool {
	d.dog.arm(isendAt, ev)
	ev.Wait(ctx)
	return !d.dog.disarm()
}

// complete waits for s's receive, identifies and verifies the message
// that filled it, and waits for that message's remote completion. It
// returns the message and its one-way latency; ok is false when the
// receive failed, matched no message in flight or missed its deadline.
// After a missed deadline the receive is abandoned: it may still be
// matched later, so the slot gets a fresh buffer and later messages use
// fresh tags.
func (d *loader) complete(ctx multirail.Ctx, s *recvSlot) (m sent, lat time.Duration, ok bool) {
	flight := d.inFlight[s.tag]
	wait0 := d.c.Now()
	arrived := d.await(ctx, flight[0].isend0, s.recv.Done())
	done := d.c.Now()
	d.dog.attempted.Add(1)

	j := 0
	if arrived {
		n, err := s.recv.Len(), s.recv.Err()
		if err == nil {
			for k, f := range flight {
				if want := d.in.payload(f.idx); n == len(want) && bytes.Equal(s.buf[:n], want) {
					j, ok = k, true
					break
				}
			}
		}
		// A failure is charged to the oldest message on the tag so the
		// loop stays closed.
		switch {
		case err != nil:
			d.dog.fail(fmt.Sprintf("message %d: receive error: %v", flight[0].idx, err))
		case !ok:
			d.dog.fail(fmt.Sprintf("receive on tag %d: %d bytes that match none of the %d messages in flight", s.tag, n, len(flight)))
		}
	} else {
		s.buf = make([]byte, len(s.buf))
		d.tagBase += uint32(d.w.tags)
	}
	m = flight[j]
	d.inFlight[s.tag] = append(flight[:j], flight[j+1:]...)
	if !d.await(ctx, m.isend0, m.req.RemoteDone()) {
		ok = false
	}
	if d.spans != nil {
		d.spans.stamp(m.req.MsgID(), stamps{m.irecv0, m.isend0, m.isend1, wait0, done})
	}
	return m, done - m.isend0, ok
}

// run drives the loop: an untimed warm-up, the timed region, then a
// drain of the messages still in flight. Only messages completed inside
// the region feed the timings; every message is verified.
func (d *loader) run(warmup, region time.Duration) *passResult {
	res := &passResult{}
	d.inFlight = make(map[uint32][]sent, d.w.tags)
	d.c.Go("perfbench-load", func(ctx multirail.Ctx) {
		slots := make([]recvSlot, d.w.depth)
		for i := range slots {
			slots[i].buf = make([]byte, d.w.maxSize)
			d.post(&slots[i])
		}
		warmStart := d.c.Now()
		warmEnd := warmStart + warmup
		timing := false
		var end, winStart time.Duration
		var winBytes int64
		k, warmed, winLo := 0, 0, 0
		for {
			m, lat, ok := d.complete(ctx, &slots[k])
			now := d.c.Now()
			if timing {
				if ok {
					res.latNS = append(res.latNS, ns(lat))
					res.isendNS = append(res.isendNS, ns(m.isend1-m.isend0))
					res.bytes += int64(len(m.req.Data))
				}
				// A short tail is left out of the windows, unless the
				// region is too short to fill even one.
				last := now >= end
				full := len(res.latNS)-winLo >= minWindowMsgs && (now-winStart >= minWindow || last)
				if full || last && len(res.windows) == 0 {
					res.windows = append(res.windows, window{lo: winLo, hi: len(res.latNS), dur: now - winStart, bytes: res.bytes - winBytes})
					winLo, winStart, winBytes = len(res.latNS), now, res.bytes
				}
				if last {
					d.region(false)
					break
				}
			} else if warmed++; now >= warmEnd {
				// Size the sample buffers from the warm-up rate, so the
				// region itself allocates nothing of the benchmark's.
				n := int(float64(warmed)/(now-warmStart).Seconds()*region.Seconds()*1.25) + 1024
				res.latNS, res.isendNS = make([]uint32, 0, n), make([]uint32, 0, n)
				res.windows = make([]window, 0, int(region/minWindow)+1)
				d.region(true)
				timing = true
				winStart = d.c.Now()
				end = winStart + region
			}
			d.post(&slots[k])
			k = (k + 1) % len(slots)
		}
		for i := 1; i < len(slots); i++ {
			d.complete(ctx, &slots[(k+i)%len(slots)])
		}
	})
	d.c.Run()
	res.next = d.next
	return res
}
