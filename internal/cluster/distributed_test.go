package cluster

import (
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// splitFederation builds two nodes with disjoint tables so a join
// across them is evaluable nowhere as a whole.
func splitFederation(t *testing.T, mech Mechanism) (*Client, []*Node) {
	t.Helper()
	mk := func(ddl ...string) *sqldb.DB {
		db := sqldb.Open()
		for _, q := range ddl {
			if _, _, err := db.Exec(q); err != nil {
				t.Fatalf("seed %q: %v", q, err)
			}
		}
		return db
	}
	dbA := mk(
		"CREATE TABLE orders (id INT, cust INT, amount FLOAT)",
		"INSERT INTO orders VALUES (1, 10, 5.0), (2, 10, 7.5), (3, 20, 1.0), (4, 30, 9.0)",
	)
	dbB := mk(
		"CREATE TABLE customers (id INT, name TEXT, vip BOOL)",
		"INSERT INTO customers VALUES (10, 'ada', TRUE), (20, 'bob', FALSE), (30, 'cyd', TRUE)",
	)
	var nodes []*Node
	var addrs []string
	for _, db := range []*sqldb.DB{dbA, dbB} {
		n, err := StartNode("127.0.0.1:0", NodeConfig{DB: db, MsPerCostUnit: 0.01, PeriodMs: 50})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr())
	}
	client, err := NewClient(ClientConfig{Addrs: addrs, Mechanism: mech, PeriodMs: 50, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return client, nodes
}

func TestDistributedJoinAcrossNodes(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	sql := `SELECT customers.name, SUM(orders.amount) AS total
		FROM orders JOIN customers ON orders.cust = customers.id
		WHERE customers.vip = TRUE AND orders.amount > 2.0
		GROUP BY customers.name ORDER BY customers.name`
	out, err := d.Run(1, sql)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if out.Subqueries != 2 {
		t.Errorf("subqueries = %d, want 2 (one per node)", out.Subqueries)
	}
	if len(out.PerNode) != 2 {
		t.Errorf("fragments from %d nodes, want 2", len(out.PerNode))
	}
	// Reference result computed on a single database holding everything.
	ref := sqldb.Open()
	for _, q := range []string{
		"CREATE TABLE orders (id INT, cust INT, amount FLOAT)",
		"INSERT INTO orders VALUES (1, 10, 5.0), (2, 10, 7.5), (3, 20, 1.0), (4, 30, 9.0)",
		"CREATE TABLE customers (id INT, name TEXT, vip BOOL)",
		"INSERT INTO customers VALUES (10, 'ada', TRUE), (20, 'bob', FALSE), (30, 'cyd', TRUE)",
	} {
		if _, _, err := ref.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, out.Result, want)
}

func assertSameResult(t *testing.T, got, want *sqldb.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d (%v vs %v)", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !sqldb.Equal(got.Rows[i][j], want.Rows[i][j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func TestDistributedPredicatePushdownShrinksFragments(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	// Only 1 of 4 orders survives the pushed predicate.
	out, err := d.Run(2, `SELECT orders.id FROM orders
		JOIN customers ON orders.cust = customers.id
		WHERE orders.amount > 8.0`)
	if err != nil {
		t.Fatal(err)
	}
	// Fragments: orders (1 row after pushdown) + customers (3 rows).
	if out.FragmentRows != 4 {
		t.Errorf("fragment rows = %d, want 4 (pushdown failed?)", out.FragmentRows)
	}
	if len(out.Result.Rows) != 1 || out.Result.Rows[0][0].Int != 4 {
		t.Errorf("result = %v, want order 4", out.Result.Rows)
	}
}

func TestDistributedFastPathSingleNode(t *testing.T) {
	client, nodes := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	// orders lives wholly on node 0: no decomposition needed.
	out, err := d.Run(3, "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if out.Subqueries != 1 {
		t.Errorf("subqueries = %d, want 1 (fast path)", out.Subqueries)
	}
	if out.Result.Rows[0][0].Int != 4 {
		t.Errorf("count = %v, want 4", out.Result.Rows[0][0])
	}
	if nodes[0].Executed() == 0 {
		t.Error("node 0 executed nothing")
	}
}

func TestDistributedUnderQANT(t *testing.T) {
	client, _ := splitFederation(t, MechQANT)
	d := NewDistributor(client)
	// The market gates subquery admission; with idle nodes everything
	// must eventually be served.
	for i := 0; i < 4; i++ {
		out, err := d.Run(int64(10+i), `SELECT customers.name FROM orders
			JOIN customers ON orders.cust = customers.id WHERE orders.id = 1`)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(out.Result.Rows) != 1 || out.Result.Rows[0][0].Str != "ada" {
			t.Errorf("run %d result = %v", i, out.Result.Rows)
		}
	}
}

func TestDistributedRejectsNonSelect(t *testing.T) {
	client, _ := splitFederation(t, MechGreedy)
	d := NewDistributor(client)
	if _, err := d.Run(1, "INSERT INTO orders VALUES (9, 9, 9.0)"); err == nil {
		t.Error("non-SELECT accepted")
	}
	if _, err := d.Run(1, "SELECT * FROM nowhere JOIN customers ON nowhere.id = customers.id"); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestFragmentTypeInference(t *testing.T) {
	db := sqldb.Open()
	rows := []sqldb.Row{
		{sqldb.Null, sqldb.NewFloat(1.5), sqldb.NewText("x"), sqldb.NewBool(true)},
		{sqldb.NewInt(2), sqldb.Null, sqldb.Null, sqldb.Null},
	}
	var blk ColBlock
	blk.FillFromRows([]string{"a", "b", "c", "d"}, rows)
	var loader fragmentLoader
	loader.reset()
	if err := loader.add(&blk); err != nil {
		t.Fatalf("loader.add: %v", err)
	}
	if err := loader.load(db, "frag"); err != nil {
		t.Fatalf("loader.load: %v", err)
	}
	res, err := db.Query("SELECT a, b, c, d FROM frag WHERE a IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 2 {
		t.Errorf("fragment rows = %v", res.Rows)
	}
	// Empty fragments still create the table: the columns arrive via the
	// fetch envelope when no block carried any.
	loader.reset()
	loader.ensureColumns([]string{"a"})
	if err := loader.load(db, "empty"); err != nil {
		t.Fatal(err)
	}
	if !db.HasRelation("empty") {
		t.Error("empty fragment table missing")
	}
	// A loader is reused across fragments; a reset must fully clear the
	// partial text a severed stream left behind.
	loader.reset()
	blk.FillFromRows([]string{"a"}, []sqldb.Row{{sqldb.NewInt(7)}})
	if err := loader.add(&blk); err != nil {
		t.Fatal(err)
	}
	loader.reset()
	blk.FillFromRows([]string{"a"}, []sqldb.Row{{sqldb.NewInt(9)}})
	if err := loader.add(&blk); err != nil {
		t.Fatal(err)
	}
	if err := loader.load(db, "retried"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT a FROM retried")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int != 9 {
		t.Fatalf("retried fragment = %v (err %v), want one row 9", res, err)
	}
}

// TestScratchPoolReuse pins the distributed layer's scratch-database
// pooling: a returned database comes back reset (no relation leaks into
// the next query's join), and the steady-state get/put cycle stays
// allocation-free instead of paying a fresh sqldb.Open per query.
func TestScratchPoolReuse(t *testing.T) {
	db := getScratch()
	if _, _, err := db.Exec("CREATE TABLE leak (a INT)"); err != nil {
		t.Fatal(err)
	}
	putScratch(db)
	got := getScratch()
	defer putScratch(got)
	if got.HasRelation("leak") {
		t.Fatal("scratch database returned to the pool still holds relations")
	}
	if raceEnabled {
		// sync.Pool deliberately bypasses itself at random under the race
		// detector, so pooled allocation counts are nondeterministic there.
		return
	}
	allocs := testing.AllocsPerRun(100, func() {
		putScratch(getScratch())
	})
	if allocs > 2 {
		t.Fatalf("scratch get/put costs %.0f allocs/op; pooling should make it ~free", allocs)
	}
}

func TestSplitConjuncts(t *testing.T) {
	stmt, err := sqldb.Parse(`SELECT a.x FROM t AS a JOIN u AS b ON a.k = b.k
		WHERE a.x > 1 AND b.y < 2 AND a.z + b.w = 3`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqldb.SelectStmt)
	pushed, residual := splitConjuncts(sel)
	if len(pushed[0]) != 1 || pushed[0][0].String() != "(a.x > 1)" {
		t.Errorf("pushed[a] = %v", exprStrings(pushed[0]))
	}
	if len(pushed[1]) != 1 || pushed[1][0].String() != "(b.y < 2)" {
		t.Errorf("pushed[b] = %v", exprStrings(pushed[1]))
	}
	if len(residual) != 1 {
		t.Errorf("residual = %v", exprStrings(residual))
	}
}

func exprStrings(es []sqldb.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}
