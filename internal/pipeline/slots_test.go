package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestSlotLedgerInvariants drives the slot ledgers of compiled chain,
// fan-out and side-input pipelines the way their windows do — records
// arrive on a stage's input, a turn reads what avail allows and takes
// slots for it, an ask returns its slot — in seeded random order, through
// take, avail, release and reach alone. After every step: the run has at
// most Parallelism asks in flight per streaming stage, every stage at most
// its reach, which is Parallelism times one plus its streaming descendants
// (a stage with none stays within Parallelism), and a turn is granted
// exactly what avail promised it. Whenever the other stages have given
// back every slot, a stage with a backlog can take at least the rest of
// its own Parallelism. At the end, with every slot back and no backlog,
// each stage's avail is its reach again: no slot leaked. And a slot that
// the head of a chain, running on its lenders' width, gives back once a
// lender has a backlog goes to that lender, not back to the head.
func TestSlotLedgerInvariants(t *testing.T) {
	chain, err := Compile(Spec{Stages: []StageSpec{
		{Name: "a", Kind: KindFilter, Predicate: "p"},
		{Name: "b", Kind: KindCategorize, Categories: []string{"x"}},
		{Name: "c", Kind: KindFilter, Predicate: "q"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The lender's backlog is a record waiting on its input, one its window
	// read and holds for a slot, or the rest of a run its window read one
	// record of: it keeps the lender from being counted idle until its last
	// record is taken.
	idle := func(s *stageSlots) bool {
		s.l.mu.Lock()
		defer s.l.mu.Unlock()
		return s.idle()
	}
	for _, width := range []int{1, 2, 3} {
		for _, arm := range []struct{ run, read int }{{1, 0}, {1, 1}, {3, 1}} {
			accounts := chain.slotLedger(ExecConfig{Parallelism: width})
			a, b := accounts[0], accounts[1]
			backlog := inbox{edge: newEdge(1)}
			b.join(backlog.edge)
			if got := a.take(3 * width); got != 3*width {
				t.Fatalf("width %d: the head of an idle chain was granted %d slots, want all %d", width, got, 3*width)
			}
			if err := backlog.send(context.Background(), make([]seqRecord, arm.run)); err != nil {
				t.Fatal(err)
			}
			if arm.read > 0 {
				backlog.poll()
				if got := b.take(1); got != 0 {
					t.Fatalf("width %d: a lender was granted %d slots while the head holds every one", width, got)
				}
			} else if n := b.avail(); n != 0 {
				t.Fatalf("width %d: a lender sees %d slots while the head holds every one", width, n)
			}
			a.release()
			if n := a.avail(); n != 0 {
				t.Fatalf("width %d, %+v: the head may take back %d slots its lender with a backlog waits for", width, arm, n)
			}
			if arm.read == 0 {
				backlog.poll()
			}
			if got := b.take(1); got != 1 {
				t.Fatalf("width %d, %+v: the lender with a backlog was granted %d slots after the head gave one back, want 1", width, arm, got)
			}
			for left := arm.run - 1; left > 0; left-- {
				if idle(b) {
					t.Fatalf("width %d, %+v: the lender counts as idle with %d records of its run not taken", width, arm, left)
				}
				backlog.poll()
			}
			if !idle(b) {
				t.Fatalf("width %d, %+v: the lender has a backlog after its last record was taken", width, arm)
			}
		}
	}
	for _, c := range []struct {
		name        string
		stages      []StageSpec
		descendants map[string]int // streaming descendants of each streaming stage
	}{
		{"chain", []StageSpec{
			{Name: "a", Kind: KindFilter, Predicate: "p"},
			{Name: "b", Kind: KindCategorize, Categories: []string{"x"}},
			{Name: "c", Kind: KindFilter, Predicate: "q"},
		}, map[string]int{"a": 2, "b": 1, "c": 0}},
		{"fan-out", []StageSpec{
			{Name: "a", Kind: KindFilter, Predicate: "p"},
			{Name: "b", Kind: KindCategorize, Categories: []string{"x"}, Input: "a"},
			{Name: "c", Kind: KindFilter, Predicate: "q", Input: "a"},
			{Name: "d", Kind: KindFilter, Predicate: "r", Input: "source"},
			{Name: "e", Kind: KindResolve, Strategy: "pairwise", Input: "a"},
			{Name: "f", Kind: KindFilter, Predicate: "s", Input: "e"},
		}, map[string]int{"a": 2, "b": 0, "c": 0, "d": 0, "f": 0}},
		{"side input", []StageSpec{
			{Name: "pool", Kind: KindFilter, Predicate: "p", Input: "source"},
			{Name: "rest", Kind: KindFilter, Predicate: "q", Input: "source"},
			{Name: "j", Kind: KindJoin, Side: "pool", Strategy: "nested-loop", Input: "rest"},
			{Name: "k", Kind: KindCategorize, Categories: []string{"x"}, Input: "j"},
		}, map[string]int{"pool": 2, "rest": 2, "j": 1, "k": 0}},
	} {
		p, err := Compile(Spec{Stages: c.stages})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, width := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 5; seed++ {
				label := fmt.Sprintf("%s, width %d, seed %d", c.name, width, seed)
				driveLedger(t, label, p, width, c.descendants, rand.New(rand.NewSource(seed)))
			}
		}
	}
}

// ledgerStage is one streaming stage as the ledger test's stand-in window
// sees it: its account, its input, and the records and asks it has.
type ledgerStage struct {
	name     string
	s        *stageSlots
	in       inbox
	held     int // records read from in and waiting for a slot
	inflight int // slots taken and not yet given back
}

// queued is the stand-in window's backlog on its input: the records sent
// and not yet taken.
func (ls *ledgerStage) queued() int { return int(ls.in.pending.Load()) }

// ledgerQueue is the most records the ledger test queues on one input.
const ledgerQueue = 8

func driveLedger(t *testing.T, label string, p *Pipeline, width int, descendants map[string]int, rng *rand.Rand) {
	t.Helper()
	var stages []*ledgerStage
	for i, s := range p.slotLedger(ExecConfig{Parallelism: width}) {
		name := p.specs[i].Name
		d, streams := descendants[name]
		if (s != nil) != streams {
			t.Fatalf("%s: stage %q has a ledger account: %v, want %v", label, name, s != nil, streams)
		}
		if s == nil {
			continue
		}
		if got, want := s.reach(), width*(1+d); got != want {
			t.Fatalf("%s: stage %q reaches %d slots, want %d (%d streaming descendants)", label, name, got, want, d)
		}
		ls := &ledgerStage{name: name, s: s, in: inbox{edge: newEdge(ledgerQueue)}}
		s.join(ls.in.edge)
		stages = append(stages, ls)
	}
	check := func(step string) {
		t.Helper()
		total := 0
		for _, ls := range stages {
			total += ls.inflight
			if ls.inflight > ls.s.reach() {
				t.Fatalf("%s, %s: stage %q has %d asks in flight, above its reach %d", label, step, ls.name, ls.inflight, ls.s.reach())
			}
			if ls.s.reach() == width && ls.inflight > width {
				t.Fatalf("%s, %s: stage %q with no streaming descendant has %d asks in flight, above %d", label, step, ls.name, ls.inflight, width)
			}
		}
		if bound := width * len(stages); total > bound {
			t.Fatalf("%s, %s: the run has %d asks in flight, above %d (%d streaming stages)", label, step, total, bound, len(stages))
		}
	}
	// turn is one window turn: with nothing held, read what avail allows
	// (one record even without a slot when nothing is in flight), then
	// take a slot for every record held.
	turn := func(ls *ledgerStage) {
		if ls.held == 0 {
			room := ls.s.avail()
			if room == 0 && ls.inflight == 0 {
				room = 1
			}
			for ; ls.held < room && ls.queued() > 0; ls.held++ {
				ls.in.poll()
			}
			if ls.held == 0 {
				return
			}
			promised := min(ls.held, ls.s.avail())
			got := ls.s.take(ls.held)
			if got != promised {
				t.Fatalf("%s: stage %q was granted %d of %d slots after avail promised %d", label, ls.name, got, ls.held, promised)
			}
			ls.held -= got
			ls.inflight += got
			return
		}
		got := ls.s.take(ls.held)
		if got < 0 || got > ls.held {
			t.Fatalf("%s: stage %q was granted %d slots for %d records", label, ls.name, got, ls.held)
		}
		ls.held -= got
		ls.inflight += got
	}
	releaseAll := func(keep *ledgerStage) {
		for _, ls := range stages {
			for ; ls != keep && ls.inflight > 0; ls.inflight-- {
				ls.s.release()
			}
		}
	}
	for step := 0; step < 2000; step++ {
		ls := stages[rng.Intn(len(stages))]
		switch op := rng.Intn(10); {
		case op < 3:
			// A run of one to three records, as long as the input stays
			// within ledgerQueue.
			if n := min(1+rng.Intn(3), ledgerQueue-ls.queued()); n > 0 {
				run := make([]seqRecord, n)
				for i := range run {
					run[i] = seqRecord{seq: int64(step), rec: dataset.Record{}}
				}
				if err := ls.in.send(context.Background(), run); err != nil {
					t.Fatal(err)
				}
			}
		case op < 6:
			turn(ls)
		case op < 9:
			if ls.inflight > 0 {
				ls.s.release()
				ls.inflight--
			}
		default:
			// Every other stage gives back all it holds: a stage with a
			// backlog must then be able to fill its own width.
			if ls.held == 0 && ls.queued() == 0 {
				break
			}
			releaseAll(ls)
			if n := ls.s.avail(); n < width-ls.inflight {
				t.Fatalf("%s, step %d: stage %q with a backlog and %d asks in flight sees %d slots once every other stage gave back all it held",
					label, step, ls.name, ls.inflight, n)
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	// Drain: give every slot back, run every backlog to the end, and give
	// those back too.
	for busy := true; busy; {
		releaseAll(nil)
		busy = false
		for _, ls := range stages {
			if ls.held > 0 || ls.queued() > 0 {
				busy = true
				turn(ls)
			}
		}
		check("drain")
	}
	for _, ls := range stages {
		if n := ls.s.avail(); n != ls.s.reach() {
			t.Fatalf("%s: after the drain stage %q sees %d slots, want its reach %d", label, ls.name, n, ls.s.reach())
		}
	}
}
