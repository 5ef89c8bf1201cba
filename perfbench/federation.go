package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/qamarket/qamarket/internal/cluster"
)

// federation is one in-process, gossip-joined set of nodes.
type federation struct {
	nodes []*cluster.Node
	addrs []string
	// convergeS is how long gossip took, after the last node started,
	// until every node listed every member alive.
	convergeS float64
}

// startFederation starts one node per config, node 0 first as the seed
// the others join through, and waits for membership to converge.
func startFederation(cfgs []cluster.NodeConfig) (*federation, error) {
	f := &federation{}
	for i, cfg := range cfgs {
		if i > 0 {
			cfg.Seeds = []string{f.addrs[0]}
		}
		n, err := cluster.StartNode("127.0.0.1:0", cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		f.addrs = append(f.addrs, n.Addr())
	}
	t0 := time.Now()
	if err := waitFor(30*time.Second, f.converged); err != nil {
		f.close()
		return nil, fmt.Errorf("membership: %w (%s)", err, f.memberStates())
	}
	f.convergeS = time.Since(t0).Seconds()
	return f, nil
}

// converged reports whether every node's Members() lists every node as
// a live member.
func (f *federation) converged() bool {
	for _, n := range f.nodes {
		live := 0
		for _, m := range n.Members() {
			if m.State.Live() {
				live++
			}
		}
		if live != len(f.nodes) {
			return false
		}
	}
	return true
}

// memberStates counts, over every node's table, the members in each
// state: what a convergence timeout reports.
func (f *federation) memberStates() string {
	counts := make(map[string]int)
	for _, n := range f.nodes {
		for _, m := range n.Members() {
			counts[m.State.String()]++
		}
	}
	return fmt.Sprintf("%d nodes, member states %v", len(f.nodes), counts)
}

func (f *federation) executed() int {
	total := 0
	for _, n := range f.nodes {
		total += n.Executed()
	}
	return total
}

// acceptRatio sums every node's lifetime market accepts and rejects.
func (f *federation) acceptRatio() (share float64, accepts, rejects int64) {
	for _, n := range f.nodes {
		st := n.MarketTelemetry().Stats
		accepts += int64(st.Accepts)
		rejects += int64(st.Rejects)
	}
	return ratio(float64(accepts), float64(accepts+rejects)), accepts, rejects
}

// close stops every node without the drain and goodbye broadcast: the
// benchmark is done with them.
func (f *federation) close() {
	for _, n := range f.nodes {
		n.CloseNow()
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
