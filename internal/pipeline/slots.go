package pipeline

import (
	"slices"
	"sync"
)

// slotLedger counts the window slots of one run's streaming stages that
// lend to one another. Every streaming stage brings width of them
// (ExecConfig.Parallelism) to its ledger's free count, and each ask holds
// one until it returns. A stage may take
//
//	min(free, width − inflight + Σ (width − d.inflight) over its idle lenders d)
//
// of them, floored at 0: what is left of its own width, and what is left
// of the width of each of its lenders — the streaming stages downstream of
// it, that transitively consume its output over main-input or side edges
// through streaming stages only — while that lender has no backlog:
// nothing waiting on its window's input and no record held for a slot. A
// stage never counts an ancestor or a sibling, and no slot records whose
// it is: a stage running past its own width counts the excess against the
// widths it counted, and it stops counting a lender the moment that lender
// has a backlog, so a slot it gives back goes to that lender first. So the
// run never has more asks in flight than its streaming stages bring, a
// stage never more than its reach, and a stage blocked handing a record
// downstream holds no slot at all.
//
// The lock is short: a window takes it once per turn to see what it may
// take, and once per slot it takes or gives back.
type slotLedger struct {
	mu     sync.Mutex
	width  int
	free   int           // slots no ask holds
	stages []*stageSlots // the accounts that share the ledger
}

// stageSlots is one streaming stage's account in its run's ledger. The
// fields below l are guarded by l.mu.
type stageSlots struct {
	l         *slotLedger
	inflight  int           // slots the stage's asks hold
	held      int           // records its window holds, waiting for a slot
	in        *edge         // the window's input once it runs: its records not yet taken are the backlog
	lenders   []*stageSlots // streaming descendants: whose idle width the stage counts
	borrowers []*stageSlots // streaming ancestors: the stages that count this one's
	wanting   bool          // the window found no slot to take and waits on wake
	wake      chan struct{} // capacity 1: a slot the stage may take came free
}

// soloSlots is the ledger of a window that runs outside Run, alone: width
// slots of its own and none to borrow.
func soloSlots(width int) *stageSlots {
	s := &stageSlots{wake: make(chan struct{}, 1)}
	(&slotLedger{width: width}).add(s)
	return s
}

// add brings the stage and its width into the ledger.
func (l *slotLedger) add(s *stageSlots) {
	s.l = l
	l.stages = append(l.stages, s)
	l.free += l.width
}

// slotLedger builds the run's ledgers from the compiled DAG: an account
// for every stage the run streams (nil for a barrier stage), each
// lending to its streaming ancestors. Lending follows streams only: a
// barrier stage ends one, so a stage below it lends nothing up past it,
// and a pipeline whose streaming stages barriers separate keeps the
// schedule each would have alone. Stages are in topological order, so
// one forward pass per stage finds its descendants.
func (p *Pipeline) slotLedger(cfg ExecConfig) []*stageSlots {
	accounts := make([]*stageSlots, len(p.stages))
	for i, st := range p.stages {
		if _, ok := streamer(st); ok {
			accounts[i] = &stageSlots{wake: make(chan struct{}, 1)}
		}
	}
	for i, s := range accounts {
		if s == nil {
			continue
		}
		down := map[string]bool{p.specs[i].Name: true}
		for j := i + 1; j < len(p.specs); j++ {
			spec, d := p.specs[j], accounts[j]
			if d == nil || !down[spec.Input] && !down[spec.Side] {
				continue
			}
			down[spec.Name] = true
			s.lenders = append(s.lenders, d)
			d.borrowers = append(d.borrowers, s)
		}
	}
	// Stages that lend to one another share one ledger; a stage that
	// neither lends nor borrows, such as each of siblings reading one
	// input, has a ledger to itself.
	for _, s := range accounts {
		if s == nil || s.l != nil {
			continue
		}
		l := &slotLedger{width: cfg.window()}
		l.add(s)
		for todo := []*stageSlots{s}; len(todo) > 0; {
			a := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for _, b := range slices.Concat(a.lenders, a.borrowers) {
				if b.l == nil {
					l.add(b)
					todo = append(todo, b)
				}
			}
		}
	}
	return accounts
}

// reach is the most slots the stage's window can ever hold at once.
func (s *stageSlots) reach() int { return s.l.width * (1 + len(s.lenders)) }

// join registers the window's input, whose backlog keeps borrowers from
// counting the stage's width.
func (s *stageSlots) join(in *edge) {
	s.l.mu.Lock()
	s.in = in
	s.l.mu.Unlock()
}

// idle reports whether the stage has no backlog, so its borrowers may
// count what is left of its width: no record held for a slot, and none
// sent on its input and not yet taken, whether it waits on the edge or in
// the run its window holds. Call with l.mu held.
func (s *stageSlots) idle() bool { return s.held == 0 && (s.in == nil || s.in.pending.Load() == 0) }

// share is how many slots the stage may take now. Call with l.mu held.
func (s *stageSlots) share() int {
	n := s.l.width - s.inflight
	for _, d := range s.lenders {
		if d.idle() {
			n += s.l.width - d.inflight
		}
	}
	return max(0, min(s.l.free, n))
}

// avail returns how many slots the stage's window could take now. When
// there are none, the next slot given back in the ledger, or a lender
// going idle, wakes it. A stage about to wait for input with width of its
// own to spare wakes any borrower that was waiting for a slot.
func (s *stageSlots) avail() int {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	if s.inflight < s.l.width && s.idle() {
		for _, b := range s.borrowers {
			b.signal()
		}
	}
	n := s.share()
	s.wanting = n == 0
	return n
}

// take grants up to n slots, as many as the stage's share, and returns
// how many; each ask on one gives it back with release. The records left
// without a slot count as the stage's backlog, and the next slot given
// back wakes the stage.
func (s *stageSlots) take(n int) int {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	got := min(n, s.share())
	s.inflight += got
	s.l.free -= got
	s.held = n - got
	s.wanting = got < n
	return got
}

// release gives back the slot of one of the stage's asks that returned,
// and wakes every other stage of the ledger that waits for one. The stage
// itself is woken by the ask's result, which its goroutine sends next, and
// by then the results that came back together can be taken together and
// their slots filled together.
func (s *stageSlots) release() {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	s.inflight--
	s.l.free++
	for _, o := range s.l.stages {
		if o != s {
			o.signal()
		}
	}
}

// signal wakes the stage's window if it waits for a slot. Call with l.mu
// held.
func (s *stageSlots) signal() {
	if s.wanting {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}
