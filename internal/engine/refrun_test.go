package engine

import (
	"fmt"
	"strconv"
	"strings"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
)

// refRun is the definition of a query's answer, the reference the
// executor is held to (TestExecutorMatchesDefinition). It shares no
// decision with the planner: no planBlock, no impliedAliases, no index,
// no hash table and no Lookup. Each block runs as nested loops over its
// Tables in FROM order, binding every live row of each table in position
// order and applying each declared join and each filter as soon as all
// its aliases are bound; the surviving tuples are projected, so they
// leave in lexicographic order of their FROM-order positions (invariant
// 18's order). The blocks' rows are concatenated in block order, a
// narrower block's padded with NULL to the widest block's columns.
//
// Every comparison — a declared join, a filter, a predicate between two
// aliases — follows one rule, written out here rather than borrowed (see
// refLiteral and refCompare): a literal or a parameter takes the kind of
// the column it is compared with, two columns of one kind compare their
// values, two of different kinds their decimal strings, and NULL matches
// nothing.
//
// A column, an alias or a parameter that does not resolve is an error
// whatever the data, where the executor raises it only once a row
// reaches it.
func refRun(db *Database, q *sqlast.Query, params Params) (*ResultSet, error) {
	rs := &ResultSet{}
	var blocks [][]Row
	for _, b := range q.Blocks {
		cols, rows, err := refBlock(db, b, params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		if len(cols) > len(rs.Columns) {
			rs.Columns = cols
		}
		blocks = append(blocks, rows)
	}
	for _, rows := range blocks {
		for _, r := range rows {
			row := make(Row, len(rs.Columns))
			copy(row, r)
			rs.Rows = append(rs.Rows, row)
		}
	}
	return rs, nil
}

// refBlock is refRun's answer to one block: its column names and rows.
func refBlock(db *Database, b *sqlast.Block, params Params) ([]string, []Row, error) {
	if len(b.Tables) == 0 {
		return nil, nil, fmt.Errorf("block has no tables")
	}
	tables := make([]*Table, len(b.Tables))
	slot := make(map[string]int, len(b.Tables))
	for i, tr := range b.Tables {
		if tables[i] = db.Table(tr.Table); tables[i] == nil {
			return nil, nil, fmt.Errorf("unknown table %q", tr.Table)
		}
		slot[tr.Alias] = i
	}
	// resolve returns a column reference's FROM slot and column index.
	resolve := func(c sqlast.ColumnRef) (s, ci int, err error) {
		s, ok := slot[c.Alias]
		if !ok {
			return 0, 0, fmt.Errorf("no alias %s", c.Alias)
		}
		if ci = tables[s].ColumnIndex(c.Column); ci < 0 {
			return 0, 0, fmt.Errorf("no column %s.%s", c.Alias, c.Column)
		}
		return s, ci, nil
	}
	pos := make([]int, len(tables))
	cell := func(s, ci int) Value { return tables[s].Cell(pos[s], ci) }

	// checks[d] holds the predicates whose last alias, in FROM order, is
	// the one at slot d: they run as soon as it is bound.
	checks := make([][]func() bool, len(tables))
	// buckets[d], when set, holds the live rows of slot d by the column of
	// its first declared join into an earlier slot, so the loop at d
	// visits only the rows that join can match: two non-NULL cells are
	// equal under the rule exactly when their strings are, so the map
	// keys by them, and keeps each bucket in position order.
	type bucket struct {
		s, ci int // the earlier slot's column
		rows  map[string][]int
	}
	buckets := make([]*bucket, len(tables))
	for _, j := range b.Joins {
		ls, lc, err := resolve(j.Left)
		if err != nil {
			return nil, nil, err
		}
		rs, rc, err := resolve(j.Right)
		if err != nil {
			return nil, nil, err
		}
		checks[max(ls, rs)] = append(checks[max(ls, rs)], func() bool {
			c, ok := refCompare(cell(ls, lc), cell(rs, rc))
			return ok && c == 0
		})
		early, late := [2]int{ls, lc}, [2]int{rs, rc}
		if ls > rs {
			early, late = late, early
		}
		if ls == rs || buckets[late[0]] != nil {
			continue
		}
		bk := &bucket{s: early[0], ci: early[1], rows: make(map[string][]int)}
		for p, t := 0, tables[late[0]]; p < t.NumRows(); p++ {
			if v := t.Cell(p, late[1]); t.Alive(p) && !v.IsNull() {
				bk.rows[v.String()] = append(bk.rows[v.String()], p)
			}
		}
		buckets[late[0]] = bk
	}
	for _, f := range b.Filters {
		ls, lc, err := resolve(f.Col)
		if err != nil {
			return nil, nil, err
		}
		if f.RightCol == nil {
			v, err := literalValue(f.Value, params)
			if err != nil {
				return nil, nil, err
			}
			v = refLiteral(v, tables[ls].Def.Columns[lc])
			checks[ls] = append(checks[ls], func() bool {
				c, ok := refCompare(cell(ls, lc), v)
				return ok && opHolds(f.Op, c)
			})
			continue
		}
		rs, rc, err := resolve(*f.RightCol)
		if err != nil {
			return nil, nil, err
		}
		checks[max(ls, rs)] = append(checks[max(ls, rs)], func() bool {
			c, ok := refCompare(cell(ls, lc), cell(rs, rc))
			return ok && opHolds(f.Op, c)
		})
	}

	projs := b.Projects
	if len(projs) == 0 {
		projs = []sqlast.ColumnRef{{Alias: b.Tables[0].Alias, Column: tables[0].Def.Key()}}
	}
	columns := make([]string, len(projs))
	type proj struct{ s, ci int }
	out := make([]proj, len(projs))
	for i, pr := range projs {
		s, ci, err := resolve(pr)
		if err != nil {
			return nil, nil, err
		}
		columns[i], out[i] = pr.Alias+"."+pr.Column, proj{s, ci}
	}

	var rows []Row
	var bind func(d int)
	visit := func(d, p int) {
		pos[d] = p
		if !tables[d].Alive(p) {
			return
		}
		for _, ok := range checks[d] {
			if !ok() {
				return
			}
		}
		bind(d + 1)
	}
	bind = func(d int) {
		if d == len(tables) {
			row := make(Row, len(out))
			for i, p := range out {
				row[i] = cell(p.s, p.ci)
			}
			rows = append(rows, row)
			return
		}
		if bk := buckets[d]; bk != nil {
			for _, p := range bk.rows[cell(bk.s, bk.ci).String()] {
				visit(d, p)
			}
			return
		}
		for p := 0; p < tables[d].NumRows(); p++ {
			visit(d, p)
		}
	}
	bind(0)
	return columns, rows, nil
}

// refLiteral is the value a literal or parameter v takes against column
// c: v itself in c's kind, an integer's decimal string against a string
// column, and against an INT column the integer that strconv.ParseInt
// reads in the string once its surrounding space is trimmed — or NULL,
// matching nothing, when it reads none.
func refLiteral(v Value, c *relational.Column) Value {
	switch {
	case v.IsNull():
		return v
	case c.Type != relational.IntCol:
		return StrVal(v.String())
	case v.Kind == IntValue:
		return v
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
	if err != nil {
		return Null
	}
	return IntVal(n)
}

// refCompare orders two cells, each of its column's kind: by value when
// the kinds are one, as decimal strings when they differ. ok is false
// when either is NULL.
func refCompare(a, b Value) (c int, ok bool) {
	switch {
	case a.IsNull() || b.IsNull():
		return 0, false
	case a.Kind == b.Kind:
		return Compare(a, b), true
	}
	return strings.Compare(a.String(), b.String()), true
}
