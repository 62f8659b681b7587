package pipeline

import (
	"slices"
	"sync"
)

// slotLedger holds the window slots of one run's streaming stages that
// lend to one another. Every streaming stage owns width of them
// (ExecConfig.Parallelism). A stage's window may also take a free slot of
// a streaming stage downstream of it — one that transitively consumes its
// output over main-input or side edges through streaming stages only —
// while that stage has no backlog: nothing waiting on its window's input
// and no record held for a slot. A stage never takes a slot of an
// ancestor or a sibling. Each ask holds one slot, and the ask's goroutine
// gives it back the moment the ask returns; a stage running on borrowed
// slots gives a borrowed one back first, to a lender that waits for one
// if there is one. So the run never has more asks in flight than its
// streaming stages own, a stage never has more borrowed slots than it has
// asks in flight beyond its own width, and a stage blocked handing a
// record downstream holds no slot at all.
//
// The lock is short: a window takes it once per turn to see what it may
// take, and once per slot it takes or gives back.
type slotLedger struct {
	mu    sync.Mutex
	width int
}

// stageSlots is one streaming stage's account in its run's ledger. The
// fields below l are guarded by l.mu.
type stageSlots struct {
	l         *slotLedger
	mine      int              // asks of this stage on its own slots
	lent      int              // its own slots held by borrowers' asks
	held      int              // records its window holds, waiting for a slot
	in        <-chan seqRecord // the window's input once it runs: its length is the backlog
	lenders   []*stageSlots    // streaming descendants, farthest first
	from      []int            // asks of this stage on each lender's slots
	borrowers []*stageSlots    // streaming ancestors: the stages that may take these slots
	wanting   bool             // the window found no slot to take and waits on wake
	wake      chan struct{}    // capacity 1: a slot the stage may take came free
}

// soloSlots is the ledger of a window that runs outside Run, alone: width
// slots of its own and none to borrow.
func soloSlots(width int) *stageSlots {
	return &stageSlots{l: &slotLedger{width: width}, wake: make(chan struct{}, 1)}
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
		if _, ok := cfg.streamer(st); ok {
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
		// The farthest descendant gets its first record last, so its
		// slots are lent first.
		slices.Reverse(s.lenders)
		s.from = make([]int, len(s.lenders))
	}
	// Stages that lend to one another share one lock; a stage that
	// neither lends nor borrows, such as each of siblings reading one
	// input, has a ledger to itself.
	for _, s := range accounts {
		if s == nil || s.l != nil {
			continue
		}
		s.l = &slotLedger{width: cfg.window()}
		for todo := []*stageSlots{s}; len(todo) > 0; {
			a := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for _, b := range slices.Concat(a.lenders, a.borrowers) {
				if b.l == nil {
					b.l = s.l
					todo = append(todo, b)
				}
			}
		}
	}
	return accounts
}

// reach is the most slots the stage's window can ever hold at once.
func (s *stageSlots) reach() int { return s.l.width * (1 + len(s.lenders)) }

// join registers the window's input, whose backlog keeps borrowers off
// the stage's slots.
func (s *stageSlots) join(in <-chan seqRecord) {
	s.l.mu.Lock()
	s.in = in
	s.l.mu.Unlock()
}

// idle reports whether the stage has no backlog, so its free slots may
// be lent. Call with l.mu held.
func (s *stageSlots) idle() bool { return s.held == 0 && len(s.in) == 0 }

// free is how many of the stage's own slots no ask holds. Call with l.mu
// held.
func (s *stageSlots) free() int { return s.l.width - s.mine - s.lent }

// avail returns how many slots the stage's window could take now. When
// there are none, the next slot given back to the stage or to one of its
// idle lenders wakes it. A stage about to wait for input with slots of
// its own free wakes any borrower that was waiting for one.
func (s *stageSlots) avail() int {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	n := s.free()
	if n > 0 && s.idle() {
		for _, b := range s.borrowers {
			b.signal()
		}
	}
	for _, d := range s.lenders {
		if d.idle() {
			n += d.free()
		}
	}
	s.wanting = n == 0
	return n
}

// take grants up to n slots, the stage's own first and then those of its
// idle lenders, and returns how many; each ask on one gives it back with
// release. The records left without a slot count as the stage's backlog,
// and the next slot given back wakes the stage.
func (s *stageSlots) take(n int) int {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	got := min(n, s.free())
	s.mine += got
	for i, d := range s.lenders {
		if !d.idle() {
			continue
		}
		k := min(n-got, d.free())
		d.lent += k
		s.from[i] += k
		got += k
	}
	s.held = n - got
	s.wanting = got < n
	return got
}

// release gives back the slot of one of the stage's asks that returned: a
// borrowed one while the stage holds any — to a lender that waits for a
// slot before any other, else to the nearest — and its own otherwise. It
// wakes whoever else waits for the slot: its owner, or a stage that may
// borrow it. The stage itself is woken by the ask's result, which its
// goroutine sends next, and by then the results that came back together
// can be taken together and their slots filled together.
func (s *stageSlots) release() {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	owner, back := s, -1
	for i := len(s.lenders) - 1; i >= 0; i-- {
		if s.from[i] == 0 {
			continue
		}
		if back < 0 || s.lenders[i].wanting && !s.lenders[back].wanting {
			back = i
		}
	}
	if back >= 0 {
		owner = s.lenders[back]
		s.from[back]--
		owner.lent--
	} else {
		s.mine--
	}
	if owner != s {
		owner.signal()
	}
	for _, b := range owner.borrowers {
		if b != s {
			b.signal()
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
