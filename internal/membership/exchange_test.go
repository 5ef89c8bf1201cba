package membership

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// entryState is one table row with its failure-detector clocks: what
// two registries must agree on to be the same registry.
type entryState struct {
	m               Member
	stalled, buried int
}

func snapshot(r *Registry) (rows []entryState, left bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.members {
		rows = append(rows, entryState{e.m, e.stalled, e.buried})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].m.ID < rows[j].m.ID })
	return rows, r.left
}

// twinWorlds runs one churn scenario twice in lockstep: world 0 gossips
// by full push-pull of the two tables, world 1 by delta Exchange over
// persistent lanes. Registries are seeded alike, so as long as the
// tables agree the failure detectors and target picks agree too.
type twinWorlds struct {
	t      *testing.T
	seed   int64
	regs   [2][]*Registry
	lanes  map[[2]int]*Lane
	down   []bool // crashed or left: neither ticks nor answers
	gen    []int  // restarts per index, for fresh addresses and RNGs
	wants  int    // follow-up pushes in world 1
	strips int    // stripped rows world 1 sent
}

func (w *twinWorlds) newNode(i int) {
	id := fmt.Sprintf("n%02d", i)
	for k := 0; k < 2; k++ {
		r, err := New(Config{
			Self: Member{
				ID:            id,
				Addr:          fmt.Sprintf("10.0.%d.%d:1", w.gen[i], i),
				CatalogDigest: fmt.Sprintf("%d:%x", i%3, i),
				CatalogFilter: fmt.Sprintf("%064x", i*w.gen[i]+1),
				Driver:        []string{"row", "vector"}[i%2],
			},
			TombstoneAfter: 4,
			Rand:           rand.New(rand.NewSource(w.seed*1000 + int64(100*w.gen[i]+i))),
		})
		if err != nil {
			w.t.Fatal(err)
		}
		if i < len(w.regs[k]) {
			w.regs[k][i] = r
		} else {
			w.regs[k] = append(w.regs[k], r)
		}
	}
}

func (w *twinWorlds) exchange(i, j int) {
	w.t.Helper()
	a, b := w.regs[0][i], w.regs[0][j]
	b.Merge(a.Members())
	a.Merge(b.Members())

	l := w.lanes[[2]int{i, j}]
	if l == nil {
		l = new(Lane)
		w.lanes[[2]int{i, j}] = l
	}
	peer := w.regs[1][j]
	err := w.regs[1][i].Exchange(l, func(req Request) (Reply, error) {
		if req.Push {
			w.wants++
		}
		for _, row := range req.Rows {
			if row.Stripped {
				w.strips++
			}
		}
		return peer.Answer(req), nil
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.check(fmt.Sprintf("exchange %d->%d", i, j), i, j)
}

func (w *twinWorlds) check(when string, idx ...int) {
	w.t.Helper()
	for _, i := range idx {
		full, fullLeft := snapshot(w.regs[0][i])
		delta, deltaLeft := snapshot(w.regs[1][i])
		if fullLeft != deltaLeft || !reflect.DeepEqual(full, delta) {
			w.t.Fatalf("seed %d, %s: node %d diverged\nfull:  %+v\ndelta: %+v", w.seed, when, i, full, delta)
		}
	}
}

func (w *twinWorlds) live() []int {
	var out []int
	for i := range w.down {
		if !w.down[i] {
			out = append(out, i)
		}
	}
	return out
}

func (w *twinWorlds) round() {
	for _, i := range w.live() {
		w.regs[0][i].Tick()
		w.regs[1][i].Tick()
	}
	for _, i := range w.live() {
		t0, t1 := w.regs[0][i].Targets(), w.regs[1][i].Targets()
		if !reflect.DeepEqual(t0, t1) {
			w.t.Fatalf("seed %d: node %d picked different targets", w.seed, i)
		}
		for _, tgt := range t0 {
			var j int
			fmt.Sscanf(tgt.ID, "n%d", &j)
			if !w.down[j] {
				w.exchange(i, j)
			}
		}
	}
}

// TestDeltaExchangeMatchesFullPushPull is the delta protocol's
// correctness property: over seeded churn — joins, crashes, graceful
// leaves, rejoins at a higher incarnation, tombstone expiry — every
// delta exchange leaves initiator and responder exactly as a full
// push-pull of their tables would, failure-detector clocks included.
func TestDeltaExchangeMatchesFullPushPull(t *testing.T) {
	var wants, strips, forgotten int
	for seed := int64(1); seed <= 16; seed++ {
		w := &twinWorlds{t: t, seed: seed, lanes: make(map[[2]int]*Lane)}
		ev := rand.New(rand.NewSource(seed))
		const founders = 5
		for i := 0; i < founders; i++ {
			w.down = append(w.down, false)
			w.gen = append(w.gen, 1)
			w.newNode(i)
		}
		for i := 1; i < founders; i++ {
			w.exchange(i, 0)
		}
		// known[i] is what live node i listed after the previous round.
		known := map[int]map[string]bool{}
		for rd := 0; rd < 80; rd++ {
			live := w.live()
			switch x := ev.Intn(10); {
			case x == 0 && len(w.down) < 9:
				// Join through one random live member.
				i := len(w.down)
				w.down = append(w.down, false)
				w.gen = append(w.gen, 1)
				w.newNode(i)
				w.exchange(i, live[ev.Intn(len(live))])
			case x == 1 && len(live) > 3:
				// Crash: silent from now on.
				w.down[live[ev.Intn(len(live))]] = true
			case x == 2 && len(live) > 3:
				// Graceful leave, announced to every live peer.
				i := live[ev.Intn(len(live))]
				w.regs[0][i].Leave()
				w.regs[1][i].Leave()
				for _, j := range live {
					if j != i {
						w.exchange(i, j)
					}
				}
				w.down[i] = true
			case x == 3 && len(live) < len(w.down):
				// Rejoin at a higher incarnation from a new address.
				var gone []int
				for i, d := range w.down {
					if d {
						gone = append(gone, i)
					}
				}
				i := gone[ev.Intn(len(gone))]
				inc := w.regs[0][i].Self().Incarnation + 1
				w.gen[i]++
				w.newNode(i)
				w.regs[0][i].SetIncarnation(inc)
				w.regs[1][i].SetIncarnation(inc)
				w.down[i] = false
				w.exchange(i, live[ev.Intn(len(live))])
			}
			w.round()
			// Count rows a live registry forgot since the last round.
			now := map[int]map[string]bool{}
			for _, i := range w.live() {
				now[i] = map[string]bool{}
				for _, m := range w.regs[0][i].Members() {
					now[i][m.ID] = true
				}
				for id := range known[i] {
					if !now[i][id] {
						forgotten++
					}
				}
			}
			known = now
		}
		wants += w.wants
		strips += w.strips
	}
	// The property must not hold vacuously: the scenarios stripped rows,
	// forgot tombstones, and answered wants.
	if strips == 0 || wants == 0 || forgotten == 0 {
		t.Fatalf("scenarios too tame: %d stripped rows, %d want follow-ups, %d forgotten rows", strips, wants, forgotten)
	}
	t.Logf("%d stripped rows, %d want follow-ups, %d forgotten rows", strips, wants, forgotten)
}

// TestExchangeStripsDeliveredRowsAndResendsWanted pins the lane
// mechanics: a lane's first digest is full, later ones are stripped, a
// peer that lost the rows (a restart behind the same lane) or holds an
// older incarnation wants them back in one follow-up, and the resent
// rows are stripped again afterwards.
func TestExchangeStripsDeliveredRowsAndResendsWanted(t *testing.T) {
	a := newTestReg(t, "a", 1)
	a.Merge([]Member{{ID: "c", Addr: "addr-c", Incarnation: 2, CatalogFilter: "ff"}})
	b := newTestReg(t, "b", 2)
	var l Lane
	var sent []Request
	send := func(req Request) (Reply, error) {
		sent = append(sent, req)
		return b.Answer(req), nil
	}
	stripped := func(req Request) (n int) {
		for _, row := range req.Rows {
			if row.Stripped {
				n++
			}
		}
		return n
	}
	if err := a.Exchange(&l, send); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || stripped(sent[0]) != 0 {
		t.Fatalf("first exchange: %d messages, %d stripped rows", len(sent), stripped(sent[0]))
	}
	if c, _ := find(b.Members(), "c"); c.CatalogFilter != "ff" {
		t.Fatalf("responder did not learn c in full: %+v", c)
	}
	if _, ok := find(a.Members(), "b"); !ok {
		t.Fatal("initiator did not learn the responder")
	}

	sent = nil
	if err := a.Exchange(&l, send); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || stripped(sent[0]) != 2 {
		t.Fatalf("second exchange: %d messages, %d stripped rows (want a and c stripped)", len(sent), stripped(sent[0]))
	}

	// The peer restarts behind the same lane, knowing only an older
	// incarnation of c.
	b = newTestReg(t, "b", 2)
	b.Merge([]Member{{ID: "c", Addr: "old-c", Incarnation: 1}})
	sent = nil
	if err := a.Exchange(&l, send); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 2 || !sent[1].Push || len(sent[1].Rows) != 2 {
		t.Fatalf("restarted peer: %d messages, follow-up %+v", len(sent), sent[len(sent)-1])
	}
	if m, ok := find(b.Members(), "a"); !ok || m.Addr == "" {
		t.Fatalf("restarted peer lacks a in full: %+v", m)
	}
	if m, _ := find(b.Members(), "c"); m.Incarnation != 2 || m.Addr != "addr-c" || m.CatalogFilter != "ff" {
		t.Fatalf("restarted peer kept a hollow or stale c: %+v", m)
	}

	sent = nil
	if err := a.Exchange(&l, send); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 || stripped(sent[0]) != 3 {
		t.Fatalf("after the follow-up: %d messages, %d stripped rows (want a, b and c stripped)", len(sent), stripped(sent[0]))
	}
}
