package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/community"
	"repro/internal/fleet"
)

// This file is the scheduler kernel: every decision between "a job was
// admitted" and "this batch runs on that chip now", as one
// single-threaded state machine with no clock of its own. qucloudd
// (internal/service) calls it under its lock with wall-clock seconds;
// Kernel.Run drives it on virtual time for internal/cloudsim, so the
// daemon and the simulator make identical decisions on identical input.
// Locking, job states, durability, admission caps, breaker
// timing and metrics stay with the caller.

// Flow is one tenant's share of the queue under start-time fair
// queueing: every submitted item gets the virtual tags
//
//	vstart  = max(kernel virtual time, flow's last vfinish)
//	vfinish = vstart + 1/weight
//
// and the queue is ordered by (vfinish, ID), so a backlogged flow of
// weight w gets a w-proportional share of claims while an idle flow's
// next item restarts at the current virtual time, without credit.
type Flow struct {
	weight  float64
	vfinish float64
	queued  int
}

// NewFlow returns a flow with the given weight (<= 0 means 1).
func NewFlow(weight float64) *Flow {
	if weight <= 0 {
		weight = 1
	}
	return &Flow{weight: weight}
}

// Queued is how many of the flow's items are waiting (not claimed).
func (f *Flow) Queued() int { return f.queued }

// Item is one job inside the kernel.
type Item struct {
	Job
	// Flow is the share the item is charged to; nil is plain FIFO.
	Flow *Flow
	// Owner is the caller's own record of the job; the kernel ignores it.
	Owner any
	// Chip is the index of the chip the item is routed to and Score the
	// policy score that won it; the kernel sets both on every dispatch.
	Chip  int
	Score float64

	vstart, vfinish float64
}

// Programs lists the circuits of a batch, in batch order.
func Programs(batch []*Item) []*circuit.Circuit {
	out := make([]*circuit.Circuit, len(batch))
	for i, it := range batch {
		out[i] = it.Circ
	}
	return out
}

// IDs lists the job IDs of a batch, in batch order.
func IDs(batch []*Item) []int {
	out := make([]int, len(batch))
	for i, it := range batch {
		out[i] = it.ID
	}
	return out
}

// chip is one backend's scheduling state.
type chip struct {
	dev  *arch.Device
	view fleet.Chip
	cfg  Config     // Algorithm 4 on this chip: the kernel's bounds and ε, the device's knee ω
	load fleet.Load // what the dispatcher scores
	ewma fleet.EWMA // smoothed per-job service seconds
	// The running batch: when it was claimed, how many jobs it holds.
	since   float64
	running int
}

// Kernel is the scheduler state machine. It is not safe for concurrent
// use: the caller serializes every method.
type Kernel struct {
	policy    fleet.Policy
	lookahead int
	chips     []chip
	queue     []*Item // ordered by (vfinish, ID)
	vtime     float64 // virtual time: the largest vstart claimed so far
	fifo      Flow    // the flow of items submitted without one
}

// NewKernel builds a kernel over the devices, one chip each, indexed as
// given. cfg carries Algorithm 4's bounds and the ε every chip
// schedules with; its Omega is ignored, each chip schedules at its device's knee
// (community.KneeOmega). A nil policy dispatches with fleet.Balanced.
func NewKernel(devices []*arch.Device, policy fleet.Policy, cfg Config) *Kernel {
	if policy == nil {
		policy = fleet.Balanced()
	}
	cfg = cfg.withDefaults()
	k := &Kernel{
		policy:    policy,
		lookahead: cfg.Lookahead,
		chips:     make([]chip, len(devices)),
		fifo:      Flow{weight: 1},
	}
	for i, d := range devices {
		cfg.Omega = community.KneeOmega(d)
		k.chips[i] = chip{dev: d, view: fleet.ChipOf(d), cfg: cfg, ewma: fleet.NewEWMA(0.3)}
	}
	return k
}

// Len is the number of queued (unclaimed) items over all chips.
func (k *Kernel) Len() int { return len(k.queue) }

// Candidate is the dispatcher's view of a chip: calibration and load.
func (k *Kernel) Candidate(chip int) fleet.Candidate {
	return fleet.Candidate{Chip: k.chips[chip].view, Load: k.chips[chip].load}
}

// SetAvailable marks a chip (un)available to the dispatcher: Pick
// avoids an unavailable chip whenever an available one fits the job.
func (k *Kernel) SetAvailable(chip int, ok bool) { k.chips[chip].load.BreakerOpen = !ok }

// Submit routes the item to a chip — before enqueueing, so the queue
// depths the policy scores exclude the item itself — tags it for fair
// queueing and queues it. It reports false, queueing nothing, when no
// chip can hold the item.
func (k *Kernel) Submit(it *Item) bool {
	if it.Flow == nil {
		it.Flow = &k.fifo
	}
	if !k.dispatch(it, -1) {
		return false
	}
	f := it.Flow
	it.vstart = k.vtime
	if f.vfinish > it.vstart {
		it.vstart = f.vfinish
	}
	f.vfinish = it.vstart + 1/f.weight
	it.vfinish = f.vfinish
	k.insert(it)
	return true
}

// dispatch picks the item's chip. from is -1 for a fresh submission or
// the chip the item is leaving; a pick that stays on from is no move.
func (k *Kernel) dispatch(it *Item, from int) bool {
	cands := make([]fleet.Candidate, len(k.chips))
	for i := range k.chips {
		cands[i] = k.Candidate(i)
	}
	fj := fleet.Job{Qubits: it.Circ.NumQubits, CNOTs: it.Circ.CNOTCount(), Gate1s: it.Circ.Gate1Count()}
	idx := fleet.Pick(k.policy, cands, fj)
	if idx < 0 || idx == from {
		return false
	}
	it.Chip, it.Score = idx, k.policy.Score(cands[idx], fj)
	k.chips[idx].load.Dispatched++
	return true
}

// insert places the item at its (vfinish, ID) position. Tags never
// change after Submit, so a requeued item lands exactly where it sat
// relative to everything still queued.
func (k *Kernel) insert(it *Item) {
	i := sort.Search(len(k.queue), func(i int) bool {
		q := k.queue[i]
		if q.vfinish > it.vfinish {
			return true
		}
		if q.vfinish < it.vfinish {
			return false
		}
		return q.ID > it.ID
	})
	k.queue = append(k.queue, nil)
	copy(k.queue[i+1:], k.queue[i:])
	k.queue[i] = it
	it.Flow.queued++
	k.chips[it.Chip].load.QueueDepth++
}

// Picker chooses a chip's next batch from its lookahead window: Next,
// or qucloudd's wrapping of it in fault injection and panic containment.
type Picker func(d *arch.Device, window []Job, cfg Config) (Batch, error)

// Claim removes and returns the chip's next batch, or nil when nothing
// is queued for it: what pick selects from the first Lookahead items
// routed to the chip, in queue order. When pick fails, the head item
// runs alone and the error comes back with it for the caller to report.
// pick runs before any state changes, so a panic out of it leaves the
// kernel intact. Claiming advances virtual time to the batch's start
// tags and marks the chip busy from now until Done.
func (k *Kernel) Claim(chip int, now float64, pick Picker) ([]*Item, error) {
	c := &k.chips[chip]
	if c.load.QueueDepth == 0 {
		return nil, nil
	}
	window := make([]Job, 0, k.lookahead)
	for _, it := range k.queue {
		if it.Chip == chip && len(window) < k.lookahead {
			window = append(window, it.Job)
		}
	}
	b, err := pick(c.dev, window, c.cfg)
	if err != nil || len(b.JobIDs) == 0 {
		b.JobIDs = []int{window[0].ID}
	}
	// The batch is a subsequence of the queue: split it off in one pass.
	batch := make([]*Item, 0, len(b.JobIDs))
	rest := k.queue[:0]
	for _, it := range k.queue {
		if len(batch) < len(b.JobIDs) && it.Chip == chip && it.ID == b.JobIDs[len(batch)] {
			batch = append(batch, it)
		} else {
			rest = append(rest, it)
		}
	}
	k.queue = rest
	for _, it := range batch {
		k.left(it)
		if it.vstart > k.vtime {
			k.vtime = it.vstart
		}
	}
	c.load.Busy, c.since, c.running = true, now, len(batch)
	return batch, err
}

// Requeue puts claimed items that will not run after all (the tail of
// a co-location that failed to compile) back at their queue positions.
func (k *Kernel) Requeue(tail []*Item) {
	for _, it := range tail {
		k.insert(it)
		k.chips[it.Chip].running--
	}
}

// Done frees the chip at time now. A successful batch's claim-to-done
// time, amortized over its jobs, feeds the service-time average behind
// the dispatcher's wait estimate; a failed one (ok false) does not.
func (k *Kernel) Done(chip int, now float64, ok bool) {
	c := &k.chips[chip]
	if ok && c.running > 0 {
		c.ewma.Observe((now - c.since) / float64(c.running))
		c.load.EWMAServiceSeconds = c.ewma.Value()
	}
	c.load.Busy, c.running = false, 0
}

// left settles the counters for an item taken out of the queue.
func (k *Kernel) left(it *Item) {
	it.Flow.queued--
	k.chips[it.Chip].load.QueueDepth--
}

// FailHead removes and returns the first item queued for the chip, or
// nil: how qucloudd gets past a head item whose claim panics.
func (k *Kernel) FailHead(chip int) *Item {
	for i, it := range k.queue {
		if it.Chip == chip {
			k.queue = append(k.queue[:i], k.queue[i+1:]...)
			k.left(it)
			return it
		}
	}
	return nil
}

// Drain removes and returns every queued item, in queue order.
func (k *Kernel) Drain() []*Item {
	out := k.queue
	k.queue = nil
	for _, it := range out {
		k.left(it)
	}
	return out
}

// Migrate re-dispatches every item queued for chip from and returns
// those that moved; an item no other chip fits keeps its routing.
// Callers mark the chip unavailable first.
func (k *Kernel) Migrate(from int) []*Item {
	var moved []*Item
	for _, it := range k.queue {
		if it.Chip == from && k.dispatch(it, from) {
			k.chips[from].load.QueueDepth--
			k.chips[it.Chip].load.QueueDepth++
			moved = append(moved, it)
		}
	}
	return moved
}

// Arrival is one submission of a virtual-time run.
type Arrival struct {
	At   float64 // seconds from the start of the run
	Item *Item
}

// Run drives the kernel on virtual time until every arrival is served:
// items are submitted at their arrival times, an idle chip claims as
// soon as something is queued for it, and exec — the caller's
// compile-and-execute step — says how many seconds the batch occupies
// the chip. Events at one instant run completions, arrivals, then
// claims by chip index, so a run is a pure function of its input.
//
// exec failing on a co-located batch means it cannot be co-located
// after all: the tail goes back to its queue position, to be claimed
// again, and exec runs on the head alone. An exec error on a single
// job, or a job no chip fits, ends the run.
func (k *Kernel) Run(arrivals []Arrival, exec func(chip int, batch []*Item, now float64) (seconds float64, err error)) error {
	arrivals = append([]Arrival(nil), arrivals...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })
	finish := make([]float64, len(k.chips)) // per chip, meaningful while busy
	for {
		now := math.Inf(1) // the next event: an arrival or a completion
		if len(arrivals) > 0 {
			now = arrivals[0].At
		}
		for i := range k.chips {
			if k.chips[i].load.Busy && finish[i] < now {
				now = finish[i]
			}
		}
		if math.IsInf(now, 1) {
			return nil
		}
		for i := range k.chips {
			if k.chips[i].load.Busy && finish[i] <= now {
				k.Done(i, now, true)
			}
		}
		for ; len(arrivals) > 0 && arrivals[0].At <= now; arrivals = arrivals[1:] {
			if it := arrivals[0].Item; !k.Submit(it) {
				return fmt.Errorf("sched: job %d (%d qubits) fits no chip", it.ID, it.Circ.NumQubits)
			}
		}
		for i := range k.chips {
			if k.chips[i].load.Busy {
				continue
			}
			// A scheduler error already put the head alone in the batch;
			// if the head truly cannot run, exec reports it.
			batch, _ := k.Claim(i, now, Next)
			if batch == nil {
				continue
			}
			seconds, err := exec(i, batch, now)
			if err != nil && len(batch) > 1 {
				k.Requeue(batch[1:])
				seconds, err = exec(i, batch[:1], now)
			}
			if err != nil {
				return err
			}
			finish[i] = now + seconds
		}
	}
}
