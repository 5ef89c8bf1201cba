package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/qamarket/qamarket/internal/metrics"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// Distributor evaluates queries that no single node can answer — the
// setting the paper's Section 2.1 delegates to distributed query
// optimizers like MARIPOSA and the Query/Process Trading framework
// [13,14]. It decomposes a select-join query into one subquery per
// referenced relation, allocates each subquery through the same
// call-for-proposals negotiation as whole queries (so QA-NT's supply
// vectors keep gating admission at the subquery granularity, exactly
// the compatibility Section 4 claims), pulls the fragments, and joins
// them in a local scratch database.
//
// Single-relation predicates from the WHERE clause are pushed into the
// corresponding subquery so fragments shrink before travelling.
type Distributor struct {
	client *Client
	// afterNegotiate, when set, runs between winning a negotiation and
	// fetching from the winner, with the winner's node ID and the
	// subquery SQL. Tests use it to kill a node in exactly that window
	// and assert the retry path re-allocates on the surviving view.
	afterNegotiate func(nodeID, sql string)
}

// NewDistributor wraps a federation client.
func NewDistributor(c *Client) *Distributor { return &Distributor{client: c} }

// DistOutcome describes one distributed evaluation.
type DistOutcome struct {
	Result       *sqldb.Result
	Subqueries   int
	FragmentRows int
	AssignMs     float64 // summed negotiation time across subqueries
	TotalMs      float64
	PerNode      map[string]int // fragments fetched per node, by stable node ID
}

// Run evaluates the query, decomposing if needed. Queries a single
// node can answer are delegated to the ordinary protocol (result rows
// are still fetched, since the caller wants them).
func (d *Distributor) Run(queryID int64, sql string) (DistOutcome, error) {
	start := time.Now()
	stmt, err := sqldb.Parse(sql)
	if err != nil {
		return DistOutcome{}, err
	}
	sel, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return DistOutcome{}, errors.New("cluster: distributor handles SELECT only")
	}
	out := DistOutcome{PerNode: make(map[string]int)}
	root := d.client.startSpan(queryID, "", "run")
	tc := childCtx(&traceCtx{V: traceV, ID: queryID}, root)
	if root == nil {
		tc = nil
	}
	defer root.Finish()

	// A distributed evaluation shares one deadline across its
	// subqueries, stamped on every negotiate/fetch RPC.
	var deadline time.Time
	if d.client.cfg.QueryTimeout > 0 {
		deadline = start.Add(d.client.cfg.QueryTimeout)
	}

	// Fast path: some node can run the whole query.
	pr, _, err := d.client.negotiateAll(sql, tc, deadline)
	if node := pr.best(); err == nil && node != nil {
		if d.afterNegotiate != nil {
			d.afterNegotiate(node.nodeID(), sql)
		}
		res, _, ferr := d.client.fetchOn(node, queryID, sql, tc, deadline)
		if ferr == nil && res != nil {
			out.Result = res
			out.Subqueries = 1
			out.FragmentRows = len(res.Rows)
			out.PerNode[node.nodeID()]++
			out.TotalMs = msSince(start)
			return out, nil
		}
	}

	// Decompose: one subquery per FROM entry, with its single-relation
	// conjuncts pushed down. Fragments stream into the loader block by
	// block — literal text is rendered straight off each batch's typed
	// columns, so fragment rows are never materialized as value slices
	// on this side of the wire.
	scratch := getScratch()
	defer putScratch(scratch)
	pushed, residual := splitConjuncts(sel)
	var loader fragmentLoader
	for i, ref := range sel.From {
		name := ref.Name()
		sub := buildSubquery(ref, pushed[i])
		loader.reset()
		frNode, err := d.allocateFetch(queryID, sub, tc, deadline, &loader)
		if err != nil {
			return DistOutcome{}, fmt.Errorf("cluster: subquery for %s: %w", name, err)
		}
		out.Subqueries++
		out.PerNode[frNode.nodeID()]++
		out.FragmentRows += loader.rows
		if err := loader.load(scratch, name); err != nil {
			return DistOutcome{}, err
		}
	}
	// Re-run the original query shape against the local fragments: the
	// fragment tables are named after the FROM aliases, so only the
	// table names (and the already-pushed WHERE) change.
	local := rewriteLocal(sel, residual)
	res, err := scratch.Select(local)
	if err != nil {
		return DistOutcome{}, fmt.Errorf("cluster: local join: %w", err)
	}
	out.Result = res // result rows are fresh slices, safe past the pool
	out.TotalMs = msSince(start)
	return out, nil
}

// allocateFetch negotiates a subquery and streams it from the best
// offer into the loader, retrying through the market's periods like
// Client.Run. The failover ladder walks the round's runner-ups when
// the winner refused or was unreachable before the request went out; a
// lost reply or a fatal engine error surfaces exactly like in Run.
// Every attempt resets the loader first, so a stream lost mid-fragment
// discards the partial text and the retry starts clean.
func (d *Distributor) allocateFetch(queryID int64, sql string, tc *traceCtx, deadline time.Time, loader *fragmentLoader) (*nodeState, error) {
	for attempt := 0; attempt <= d.client.cfg.MaxRetries; attempt++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("subquery %q: %w", sql, ErrExpired)
		}
		pr, _, err := d.client.negotiateAll(sql, tc, deadline)
		if err != nil {
			return nil, err
		}
		if len(pr.ranked) == 0 {
			time.Sleep(time.Duration(d.client.cfg.PeriodMs) * time.Millisecond)
			continue
		}
		renegotiated := false
		for ci, node := range pr.ranked {
			if ci > 0 {
				if !d.client.takeRetryToken() {
					return nil, fmt.Errorf("subquery %q: %w", sql, ErrRetryBudget)
				}
				d.client.health.Inc(metrics.FailoversTotal)
			}
			if d.afterNegotiate != nil {
				d.afterNegotiate(node.nodeID(), sql)
			}
			loader.reset()
			fr, _, kind, err := d.client.fetchAttempt(node, queryID, sql, tc, deadline, 0, loader.add)
			switch kind {
			case attemptOK:
				if !fr.Accepted {
					renegotiated = true // lost the supply race; this round is stale
				}
			case attemptFatal:
				return nil, err
			case attemptRefused, attemptNotSent:
				continue // next candidate is safe: the subquery did not run here
			case attemptLost:
				// Fetches are read-only fragment pulls: re-running one is
				// wasteful but never incorrect, so the availability-first
				// renegotiate is always the right call here.
				renegotiated = true
			}
			if renegotiated {
				break
			}
			loader.ensureColumns(fr.Columns)
			return node, nil
		}
	}
	return nil, fmt.Errorf("cluster: subquery %q refused by all nodes", sql)
}

// scratchPool recycles the local scratch databases distributed joins
// assemble fragments in. A decomposed query used to pay a fresh
// sqldb.Open per evaluation; pooling with Reset keeps the map/slice
// backbone warm across queries on the coordinator's hot path.
var scratchPool = sync.Pool{New: func() any { return sqldb.Open() }}

func getScratch() *sqldb.DB { return scratchPool.Get().(*sqldb.DB) }

func putScratch(db *sqldb.DB) {
	db.Reset()
	scratchPool.Put(db)
}

// splitConjuncts partitions the WHERE clause's AND-conjuncts into
// per-FROM-entry pushdown lists (conjuncts referencing exactly one
// binding) and the residual evaluated after the local join.
func splitConjuncts(sel *sqldb.SelectStmt) (pushed [][]sqldb.Expr, residual []sqldb.Expr) {
	pushed = make([][]sqldb.Expr, len(sel.From))
	if sel.Where == nil {
		return pushed, nil
	}
	names := make(map[string]int, len(sel.From))
	for i, f := range sel.From {
		names[f.Name()] = i
	}
	for _, c := range conjuncts(sel.Where) {
		quals := map[string]bool{}
		unqualified := false
		collectQuals(c, quals, &unqualified)
		if !unqualified && len(quals) == 1 {
			for q := range quals {
				if i, ok := names[q]; ok {
					pushed[i] = append(pushed[i], c)
					quals = nil
					break
				}
			}
			if quals == nil {
				continue
			}
		}
		residual = append(residual, c)
	}
	return pushed, residual
}

// conjuncts flattens a chain of ANDs.
func conjuncts(e sqldb.Expr) []sqldb.Expr {
	if b, ok := e.(*sqldb.BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []sqldb.Expr{e}
}

// collectQuals gathers the table qualifiers referenced by an
// expression; unqualified column references make pushdown unsafe.
func collectQuals(e sqldb.Expr, quals map[string]bool, unqualified *bool) {
	switch x := e.(type) {
	case *sqldb.ColumnRef:
		if x.Table == "" {
			*unqualified = true
		} else {
			quals[x.Table] = true
		}
	case *sqldb.BinaryExpr:
		collectQuals(x.Left, quals, unqualified)
		collectQuals(x.Right, quals, unqualified)
	case *sqldb.UnaryExpr:
		collectQuals(x.X, quals, unqualified)
	case *sqldb.AggExpr:
		if x.Arg != nil {
			collectQuals(x.Arg, quals, unqualified)
		}
	case *sqldb.InExpr:
		collectQuals(x.X, quals, unqualified)
		for _, item := range x.List {
			collectQuals(item, quals, unqualified)
		}
	case *sqldb.BetweenExpr:
		collectQuals(x.X, quals, unqualified)
		collectQuals(x.Lo, quals, unqualified)
		collectQuals(x.Hi, quals, unqualified)
	case *sqldb.LikeExpr:
		collectQuals(x.X, quals, unqualified)
		collectQuals(x.Pattern, quals, unqualified)
	case *sqldb.IsNullExpr:
		collectQuals(x.X, quals, unqualified)
	}
}

// buildSubquery renders "SELECT * FROM rel [WHERE pushed...]" with the
// pushed conjuncts rewritten against the bare relation.
func buildSubquery(ref sqldb.TableRef, pushed []sqldb.Expr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT * FROM %s", ref.Table)
	if ref.Alias != "" && ref.Alias != ref.Table {
		fmt.Fprintf(&b, " AS %s", ref.Alias)
	}
	if len(pushed) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range pushed {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// fragmentLoader turns a streamed fragment into local DDL + one bulk
// INSERT without ever materializing rows: each arriving ColBlock is
// rendered to SQL literal text straight off its typed arrays (one
// cursor per array), and column types are inferred from the first
// non-null kind byte seen per column (all-null fragments default to
// INT, which can hold NULLs anyway). reset discards any partial
// fragment so a failover retry starts clean.
type fragmentLoader struct {
	columns []string
	types   []sqldb.Type
	typed   []bool
	rows    int
	ins     strings.Builder
}

func (l *fragmentLoader) reset() {
	l.columns = l.columns[:0]
	l.types = l.types[:0]
	l.typed = l.typed[:0]
	l.rows = 0
	l.ins.Reset()
}

// add consumes one block of the fragment stream. It is fetchAttempt's
// sink, so the block's buffers are only valid for the call — everything
// retained is copied into the loader's builder.
func (l *fragmentLoader) add(blk *ColBlock) error {
	if len(l.columns) == 0 {
		l.columns = append(l.columns, blk.Columns...)
		for range blk.Columns {
			l.types = append(l.types, sqldb.TInt)
			l.typed = append(l.typed, false)
		}
	}
	if len(blk.Cols) != len(l.columns) {
		return fmt.Errorf("cluster: fragment block has %d columns, header promised %d", len(blk.Cols), len(l.columns))
	}
	for j := range blk.Cols {
		if l.typed[j] {
			continue
		}
		for _, k := range blk.Cols[j].Kinds {
			switch k {
			case kindByteInt:
				l.types[j], l.typed[j] = sqldb.TInt, true
			case kindByteFloat:
				l.types[j], l.typed[j] = sqldb.TFloat, true
			case kindByteText:
				l.types[j], l.typed[j] = sqldb.TText, true
			case kindByteBool:
				l.types[j], l.typed[j] = sqldb.TBool, true
			}
			if l.typed[j] {
				break
			}
		}
	}
	// Render the block's rows as literal tuples. One cursor per typed
	// array per column; the kind bytes drive which array each cell
	// reads, mirroring the wire decode.
	ncols := len(l.columns)
	offs := make([]struct{ i, f, s, b int }, ncols)
	var num [32]byte
	for r := 0; r < blk.Rows; r++ {
		if l.rows > 0 || r > 0 {
			l.ins.WriteByte(',')
		}
		l.ins.WriteByte('(')
		for j := 0; j < ncols; j++ {
			if j > 0 {
				l.ins.WriteByte(',')
			}
			col := &blk.Cols[j]
			off := &offs[j]
			switch col.Kinds[r] {
			case kindByteInt:
				l.ins.Write(strconv.AppendInt(num[:0], col.Ints[off.i], 10))
				off.i++
			case kindByteFloat:
				l.ins.Write(strconv.AppendFloat(num[:0], col.Floats[off.f], 'g', -1, 64))
				off.f++
			case kindByteText:
				l.ins.WriteByte('\'')
				l.ins.WriteString(col.Texts[off.s])
				l.ins.WriteByte('\'')
				off.s++
			case kindByteBool:
				if col.Bools[off.b] {
					l.ins.WriteString("TRUE")
				} else {
					l.ins.WriteString("FALSE")
				}
				off.b++
			default:
				l.ins.WriteString("NULL")
			}
		}
		l.ins.WriteByte(')')
	}
	l.rows += blk.Rows
	return nil
}

// ensureColumns seeds the column list from the fetch envelope when no
// block carried one — a zero-row fragment still needs its table shape.
func (l *fragmentLoader) ensureColumns(columns []string) {
	if len(l.columns) > 0 {
		return
	}
	l.columns = append(l.columns, columns...)
	for range columns {
		l.types = append(l.types, sqldb.TInt)
		l.typed = append(l.typed, false)
	}
}

// load materializes the accumulated fragment as a local table named
// after the FROM binding.
func (l *fragmentLoader) load(db *sqldb.DB, name string) error {
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", name)
	for j, c := range l.columns {
		if j > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", c, l.types[j])
	}
	ddl.WriteString(")")
	if _, _, err := db.Exec(ddl.String()); err != nil {
		return err
	}
	if l.rows == 0 {
		return nil
	}
	if _, _, err := db.Exec("INSERT INTO " + name + " VALUES " + l.ins.String()); err != nil {
		return err
	}
	return nil
}

// rewriteLocal adapts the original SELECT to the scratch database: the
// FROM entries point at the fragment tables (named by binding), and
// the WHERE keeps only the residual conjuncts.
func rewriteLocal(sel *sqldb.SelectStmt, residual []sqldb.Expr) *sqldb.SelectStmt {
	local := *sel
	local.From = make([]sqldb.TableRef, len(sel.From))
	for i, f := range sel.From {
		local.From[i] = sqldb.TableRef{Table: f.Name()}
	}
	local.Where = nil
	for _, c := range residual {
		if local.Where == nil {
			local.Where = c
		} else {
			local.Where = &sqldb.BinaryExpr{Op: "AND", Left: local.Where, Right: c}
		}
	}
	return &local
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
