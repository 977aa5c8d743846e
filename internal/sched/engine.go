package sched

import (
	"fmt"
	"sync"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// finishHeap orders the running tasks' completion events by time, ties by
// node id — a total order, so pops are layout-independent. It lives in the
// pooled scratch.
type finishHeap []finishEvent

// finishEvent is one running task: when it ends, and where it runs.
type finishEvent struct {
	at   float64
	node int32
	proc int32
}

func (a finishEvent) before(b finishEvent) bool {
	return a.at < b.at || (a.at == b.at && a.node < b.node)
}

func (h *finishHeap) push(at float64, node, proc int32) {
	x := finishEvent{at: at, node: node, proc: proc}
	e := append(*h, x)
	*h = e
	i := len(e) - 1
	for i > 0 && x.before(e[(i-1)/2]) {
		e[i], i = e[(i-1)/2], (i-1)/2
	}
	e[i] = x
}

// pop removes and returns the earliest event.
func (h *finishHeap) pop() finishEvent {
	e, last := *h, len(*h)-1
	top, x := e[0], e[last]
	e = e[:last]
	*h = e
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && e[c+1].before(e[c]) {
			c++
		}
		if !e[c].before(x) {
			break
		}
		e[i], i = e[c], c
	}
	if last > 0 {
		e[i] = x
	}
	return top
}

// endsAt reports whether the earliest pending event ends at time now.
func (h finishHeap) endsAt(now float64) bool { return len(h) > 0 && h[0].at == now }

// schedScratch is the engine's working set, kept across calls in the
// pooled engine; the processor free-set lives in the machine.State pool.
type schedScratch struct {
	nodes []nodeState
	ready rankSet
	fin   finishHeap
	// Booking flags, and the inputs that out-of-order children still charge.
	started, outOfOrder []bool
	booked              []int64
}

// nodeState is a task's progress, one record because a completion updates
// both on the parent: in sums the finished children's output files (the
// task's input size, released at its end), remaining counts the others.
type nodeState struct {
	in        int64
	remaining int32
}

// admission is the rule by which the engine hands ready tasks to idle
// processors: the one free parameter of paper Algorithm 3.
type admission uint8

const (
	admitRank    admission = iota // the ready task of lowest rank
	admitSigma                    // σ in order, under the cap (memCapped)
	admitBooking                  // booking rank, in the unbooked budget (memCappedBooking)
)

// engine is the event-driven core of paper Algorithm 3, shared by the list
// heuristics and both memory-capped schedulers; only the admission rule
// differs. Time jumps from one completion instant to the next. At each
// instant every completion, in (time, node) order, is drained before the
// rule picks tasks for the idle processors (fastest first), so releases
// precede allocations as in the simulator (§4.1) and a parent freed by
// several children sees all of them complete. On trees without
// zero-duration tasks the running resident maximum is then exactly the
// replay's peak, and the engine caches it on the Schedule. Engines are
// pooled with their scratch: a call allocates only its Schedule.
type engine struct {
	schedScratch
	t    *tree.Tree
	m    *machine.Model
	rule admission
	rk   rankPerm // the ready set's order (admitRank, admitBooking)

	// The capped rules: the cap, σ, and the first index of σ not started;
	// booking adds σ-positions, σ's suffix peaks, the budget held by
	// out-of-order tasks, and the instant's ready-set walk: the next rank
	// (-1 at the end), the tasks visited, and whether σ[next] was retried.
	cap        int64
	order      []int
	next       int
	pos        []int
	futurePeak []int64
	extraUsed  int64
	walkRank   int32
	walked     int
	fellBack   bool
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// listScheduleRank runs the event-based list scheduling of paper
// Algorithm 3: whenever a processor is available, it receives the ready
// node of lowest rank (the heuristics' rank permutations live in
// Precompute).
func listScheduleRank(t *tree.Tree, m *machine.Model, rk rankPerm) (*Schedule, error) {
	e := enginePool.Get().(*engine)
	e.t, e.m, e.rule, e.rk = t, m, admitRank, rk
	return e.run()
}

// run schedules e.t on e.m under e.rule and returns e to the pool holding
// its scratch only, so no pooled engine keeps a tree alive.
func (e *engine) run() (*Schedule, error) {
	t, m := e.t, e.m
	n := t.Len()
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: hetModel(m)}
	var mem, peak int64 // resident memory, and its running maximum
	scheduled, hasPulse := 0, false
	if n > 0 {
		st := machine.NewState(m)
		e.nodes, e.fin = resize(e.nodes, n), e.fin[:0]
		rule, ranked := e.rule, e.rule != admitSigma
		if ranked {
			e.ready.reset(n)
		}
		if rule == admitBooking {
			e.started, e.outOfOrder, e.booked = resize(e.started, n), resize(e.outOfOrder, n), resize(e.booked, n)
			clear(e.started)
			clear(e.outOfOrder)
			clear(e.booked)
		}
		for v := 0; v < n; v++ {
			k := int32(t.NumChildren(v))
			e.nodes[v] = nodeState{remaining: k}
			if ranked && k == 0 {
				e.ready.add(e.rk.rank[v])
			}
			hasPulse = hasPulse || t.W(v) == 0
		}
		now := 0.0
		for fin := &e.fin; ; {
			// Start the tasks the rule picks while a processor is idle; the
			// booking rule walks the ready set afresh at each instant.
			if rule == admitBooking {
				e.walkRank, e.walked, e.fellBack = e.ready.next(0), 0, false
			}
			for st.Idle() > 0 {
				var v int
				switch rule {
				case admitRank:
					v = -1
					if e.ready.count > 0 {
						v = int(e.rk.byRank[e.ready.popMin()])
					}
				case admitSigma:
					v = e.pickSigma(mem)
				default:
					v = e.pickBooking(mem)
				}
				if v < 0 {
					break
				}
				proc := st.Take()
				s.Start[v], s.Proc[v] = now, int(proc)
				if mem += t.N(v) + t.F(v); mem > peak {
					peak = mem
				}
				fin.push(now+m.ExecTime(t.W(v), int(proc)), int32(v), proc)
				scheduled++
			}
			if len(*fin) == 0 {
				break
			}
			// Drain the next instant's completions: each frees its
			// processor, releases n_v and v's inputs, and adds f_v to the
			// parent's inputs; the parent's last child makes it ready.
			for now = (*fin)[0].at; fin.endsAt(now); {
				ev := fin.pop()
				v := int(ev.node)
				st.Put(ev.proc)
				mem -= t.N(v) + e.nodes[v].in
				if rule == admitBooking {
					e.settle(v)
				}
				if pa := t.Parent(v); pa != tree.None {
					np := &e.nodes[pa]
					np.in += t.F(v)
					if np.remaining--; np.remaining == 0 && ranked {
						e.ready.add(e.rk.rank[pa])
					}
				}
			}
		}
		st.Recycle()
	}
	*e = engine{schedScratch: e.schedScratch}
	enginePool.Put(e)
	if scheduled != n {
		return nil, fmt.Errorf("sched: internal error: scheduled %d of %d tasks", scheduled, n)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
	return s, nil
}
