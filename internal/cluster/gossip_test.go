package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

func gossipTestDB(t *testing.T) *sqldb.DB {
	t.Helper()
	db := sqldb.Open()
	if _, _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// laneAddrs lists the peer addresses a node holds gossip lanes to.
func laneAddrs(n *Node) map[string]bool {
	n.lanesMu.Lock()
	defer n.lanesMu.Unlock()
	out := make(map[string]bool, len(n.lanes))
	for addr := range n.lanes {
		out[addr] = true
	}
	return out
}

// TestGossipLanesCloseWithPeers: gossip rides one persistent lane per
// peer, a crashed and then evicted peer leaves no lane behind on either
// end, and Close takes every lane of the closing node down with it.
func TestGossipLanesCloseWithPeers(t *testing.T) {
	db := gossipTestDB(t)
	a := startGossipNode(t, db, "ga", nil, 1)
	b := startGossipNode(t, db, "gb", []string{a.Addr()}, 1)
	c := startGossipNode(t, db, "gc", []string{a.Addr()}, 1)
	nodes := []*Node{a, b, c}
	// With fanout 2 and two peers, every node exchanges with both peers
	// each round: each serves exactly one inbound lane per peer.
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range nodes {
			if len(liveIDs(n)) != 3 || n.OpenConns() != 2 || len(laneAddrs(n)) != 2 {
				return false
			}
		}
		return true
	}, "the three nodes never settled on one lane per peer")

	if err := c.CloseNow(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return !liveIDs(a)["gc"] && !liveIDs(b)["gc"]
	}, "crashed gc was never evicted")
	waitFor(t, 5*time.Second, func() bool {
		return a.OpenConns() == 1 && b.OpenConns() == 1 && !laneAddrs(a)[c.Addr()] && !laneAddrs(b)[c.Addr()]
	}, "a lane to or from the evicted gc survived")

	if err := a.CloseNow(); err != nil {
		t.Fatal(err)
	}
	if n := len(laneAddrs(a)); n != 0 {
		t.Fatalf("closed node kept %d lanes", n)
	}
	waitFor(t, 5*time.Second, func() bool { return b.OpenConns() == 0 },
		"the closed node's lane into gb stayed open")
}

// TestGossipCountersMoveOnExchange: one exchange moves the exchange and
// byte counters, a settled lane sends fewer bytes than the first
// exchange, and a peer restarted behind the same address wants the
// stripped rows back in one follow-up.
func TestGossipCountersMoveOnExchange(t *testing.T) {
	db := gossipTestDB(t)
	quiet := NodeConfig{DB: db, GossipPeriodMs: int64(time.Hour / time.Millisecond)}
	cfgA, cfgB := quiet, quiet
	cfgA.NodeID, cfgB.NodeID = "qa", "qb"
	a, err := StartNode("127.0.0.1:0", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.CloseNow() })
	b, err := StartNode("127.0.0.1:0", cfgB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.CloseNow() })
	sent := func() int64 { return a.health.Counter(metrics.GossipBytesSentTotal) }

	a.gossipWith(b.Addr())
	first := sent()
	if got := a.health.Counter(metrics.GossipExchangesTotal); got != 1 {
		t.Fatalf("exchanges after one exchange: %d", got)
	}
	if first == 0 || a.health.Counter(metrics.GossipBytesReceivedTotal) == 0 {
		t.Fatalf("byte counters did not move: sent %d, received %d", first, a.health.Counter(metrics.GossipBytesReceivedTotal))
	}
	if !liveIDs(a)["qb"] || !liveIDs(b)["qa"] {
		t.Fatal("the exchange did not introduce the two nodes")
	}

	// The second exchange delivers qb's row to qb in full; from the
	// third on, every row is stripped.
	a.gossipWith(b.Addr())
	before := sent()
	a.gossipWith(b.Addr())
	if settled := sent() - before; settled >= first {
		t.Fatalf("settled exchange sent %d bytes, first sent %d", settled, first)
	}
	if got := a.health.Counter(metrics.GossipWantsTotal); got != 0 {
		t.Fatalf("want follow-ups on a settled lane: %d", got)
	}

	// Restart qb on the same address: its empty table cannot place the
	// stripped rows, and the lane redials without forgetting what it
	// delivered to the old process.
	addr := b.Addr()
	if err := b.CloseNow(); err != nil {
		t.Fatal(err)
	}
	var b2 *Node
	waitFor(t, 2*time.Second, func() bool {
		b2, err = StartNode(addr, cfgB)
		return err == nil
	}, "could not restart qb on its address")
	t.Cleanup(func() { b2.CloseNow() })
	// The first exchange may still find the old connection and fail;
	// the next one redials.
	waitFor(t, 2*time.Second, func() bool {
		a.gossipWith(addr)
		return a.health.Counter(metrics.GossipWantsTotal) > 0
	}, "the restarted peer never wanted the stripped rows")
	if got := a.health.Counter(metrics.GossipWantsTotal); got != 1 {
		t.Fatalf("want follow-ups after the restart: %d", got)
	}
	if !liveIDs(b2)["qa"] {
		t.Fatal("the restarted peer never got qa's row in full")
	}
}

// TestCloseNowRacingIdleDialsReturns is the regression for a shutdown
// hang: a connection accepted just before CloseNow used to be tracked
// after closeConns had run, so nothing closed it and CloseNow waited on
// its serveConn forever. Idle persistent connections — what gossip lanes
// are between exchanges — never hang up on their own.
func TestCloseNowRacingIdleDialsReturns(t *testing.T) {
	db := gossipTestDB(t)
	for iter := 0; iter < 40; iter++ {
		n, err := StartNode("127.0.0.1:0", NodeConfig{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			conns []net.Conn
			wg    sync.WaitGroup
		)
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					c, err := net.Dial("tcp", n.Addr())
					if err != nil {
						return // the listener closed
					}
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
			}()
		}
		waitFor(t, 2*time.Second, func() bool { return n.OpenConns() > 8 }, "dials never landed")
		done := make(chan struct{})
		go func() {
			n.CloseNow()
			close(done)
		}()
		var hung bool
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			hung = true
		}
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
		if hung {
			t.Fatalf("iteration %d: CloseNow did not return with idle connections racing it", iter)
		}
	}
}
