package membership

import (
	"fmt"
	"math/rand"
)

// Convergence reports how fast a simulated mesh of registries agrees
// on a membership change.
type Convergence struct {
	// Nodes is the initial federation size.
	Nodes int
	// JoinRounds is how many gossip rounds it took every registry to
	// list a freshly joined member as alive.
	JoinRounds int
	// EvictRounds is how many rounds after a crash it took every
	// surviving registry to stop listing the crashed member as live.
	EvictRounds int
}

// SimulateConvergence meshes n in-memory registries through the same
// delta Exchange a node runs over the network (here a direct call to the
// peer's Answer), joins an (n+1)th member knowing only the first node,
// and then crashes one member — measuring the rounds until every view
// agrees on each change. It is the membership-convergence benchmark
// behind BENCH_qamarket.json and is fully deterministic for a given
// (n, seed).
func SimulateConvergence(n int, seed int64) (Convergence, error) {
	if n < 2 {
		return Convergence{}, fmt.Errorf("membership: SimulateConvergence needs >= 2 nodes, got %d", n)
	}
	regs := make([]*Registry, 0, n+1)
	newReg := func(i int) (*Registry, error) {
		return New(Config{
			Self: Member{ID: fmt.Sprintf("n%02d", i), Addr: fmt.Sprintf("10.0.0.%d:1", i)},
			Rand: rand.New(rand.NewSource(seed + int64(i))),
		})
	}
	for i := 0; i < n; i++ {
		r, err := newReg(i)
		if err != nil {
			return Convergence{}, err
		}
		regs = append(regs, r)
	}
	// lanes[[2]int{i, j}] is i's lane to j, kept across rounds as a
	// node keeps its connection.
	lanes := make(map[[2]int]*Lane)
	exchange := func(i, j int) {
		l := lanes[[2]int{i, j}]
		if l == nil {
			l = new(Lane)
			lanes[[2]int{i, j}] = l
		}
		// A direct call cannot fail.
		_ = regs[i].Exchange(l, func(req Request) (Reply, error) { return regs[j].Answer(req), nil })
	}
	// Everyone starts knowing everyone: the steady-state federation.
	for i := range regs {
		for j := range regs {
			if i != j {
				exchange(i, j)
			}
		}
	}
	dead := map[int]bool{}
	// round runs one synchronous gossip round: every live registry
	// ticks, then exchanges with its fanout targets. A dead index
	// neither ticks nor answers, so knowledge about it freezes and the
	// failure detector takes over.
	round := func() {
		for i, r := range regs {
			if dead[i] {
				continue
			}
			r.Tick()
		}
		for i, r := range regs {
			if dead[i] {
				continue
			}
			for _, tgt := range r.Targets() {
				j := indexOf(regs, tgt.ID)
				if j < 0 || dead[j] {
					continue
				}
				exchange(i, j)
			}
		}
	}
	everyone := func(ok func(r *Registry) bool) bool {
		for i, r := range regs {
			if !dead[i] && !ok(r) {
				return false
			}
		}
		return true
	}
	maxRounds := 64 * (n + 1)

	// Join: the newcomer knows only node 0 and announces itself there.
	joiner, err := newReg(n)
	if err != nil {
		return Convergence{}, err
	}
	regs = append(regs, joiner)
	exchange(n, 0)
	joinID := joiner.Self().ID
	joinRounds := -1
	for rd := 1; rd <= maxRounds; rd++ {
		round()
		if everyone(func(r *Registry) bool { return hasLive(r, joinID) }) {
			joinRounds = rd
			break
		}
	}
	if joinRounds < 0 {
		return Convergence{}, fmt.Errorf("membership: join did not converge in %d rounds", maxRounds)
	}

	// Crash: node 1 goes silent; survivors must suspect and evict it.
	crashed := regs[1].Self().ID
	dead[1] = true
	evictRounds := -1
	for rd := 1; rd <= maxRounds; rd++ {
		round()
		if everyone(func(r *Registry) bool { return !hasLive(r, crashed) }) {
			evictRounds = rd
			break
		}
	}
	if evictRounds < 0 {
		return Convergence{}, fmt.Errorf("membership: eviction did not converge in %d rounds", maxRounds)
	}
	return Convergence{Nodes: n, JoinRounds: joinRounds, EvictRounds: evictRounds}, nil
}

func indexOf(regs []*Registry, id string) int {
	for i, r := range regs {
		if r.Self().ID == id {
			return i
		}
	}
	return -1
}

func hasLive(r *Registry, id string) bool {
	for _, m := range r.Live() {
		if m.ID == id {
			return true
		}
	}
	return false
}
