package engine

import (
	"context"
	"fmt"
	"sort"

	"legodb/internal/sqlast"
)

// This file is the row-at-a-time executor: the original per-tuple
// iterator over binding maps, kept behind Options{RowAtATime: true} as
// the reference implementation for the batch executor's differential
// tests and speedup baseline. It consumes the same blockPlan, so both
// paths perform identical logical work and accrue identical Counters.

// binding is one intermediate tuple: row positions per bound alias.
type binding map[string]int

func (db *Database) executeBlockRows(ctx context.Context, p *blockPlan, params Params, stats *Counters, out *emitter) error {
	current, err := db.startRows(ctx, p, params, stats)
	if err != nil {
		return err
	}

	for i := range p.steps {
		st := &p.steps[i]
		switch {
		case st.kind == stepCartesian:
			rows, err := db.scanFiltered(ctx, p.tables[st.alias], st.alias, st.filters, params, stats)
			if err != nil {
				return err
			}
			var merged []binding
			for _, l := range current {
				for _, r := range rows {
					// Polled per emitted pair: one outer tuple alone can
					// clone thousands of inner ones.
					if len(merged)&ctxCheckMask == 0 {
						if err := ctx.Err(); err != nil {
							return err
						}
					}
					m := cloneBinding(l)
					m[st.alias] = r[st.alias]
					merged = append(merged, m)
				}
			}
			current = merged

		case st.probesIndex(len(current), p.tables[st.alias], params):
			// The new side's column index is unused (the plan holds the
			// index) but is still resolved for error parity.
			_, oldCi, err := p.resolveJoinCols(st)
			if err != nil {
				return err
			}
			newTable := p.tables[st.alias]
			oldTable := p.tables[st.oldAlias]
			heapBytes := newTable.Def.RowBytes()
			// Index nested-loop join: probe the new relation's index on
			// the join column once per intermediate tuple.
			var joined []binding
			for li, l := range current {
				if li&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				stats.Probes++
				v := oldTable.Cell(l[st.oldAlias], oldCi)
				if v.IsNull() {
					continue // NULL equals nothing, a NULL key included
				}
				for _, pos := range newTable.lookup(st.index, v) {
					stats.TuplesRead++
					stats.BytesRead += newTable.probeRowBytes(pos, heapBytes)
					if ok, err := db.passes(newTable, pos, st.filters, params); err != nil {
						return err
					} else if !ok {
						continue
					}
					m := cloneBinding(l)
					m[st.alias] = pos
					joined = append(joined, m)
				}
			}
			current = joined

		default:
			newCi, oldCi, err := p.resolveJoinCols(st)
			if err != nil {
				return err
			}
			newTable := p.tables[st.alias]
			oldTable := p.tables[st.oldAlias]
			// Hash join: scan + build the new relation, probe current.
			rows, err := db.scanFiltered(ctx, newTable, st.alias, st.filters, params, stats)
			if err != nil {
				return err
			}
			hash := make(map[Value][]int, len(rows))
			for _, r := range rows {
				pos := r[st.alias]
				// NULL equals nothing, so NULL keys stay out of the build
				// and a NULL probe finds no bucket.
				if v := newTable.Cell(pos, newCi); !v.IsNull() {
					hash[v] = append(hash[v], pos)
				}
			}
			var joined []binding
			for li, l := range current {
				if li&ctxCheckMask == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				v := oldTable.Cell(l[st.oldAlias], oldCi)
				for _, pos := range hash[v] {
					m := cloneBinding(l)
					m[st.alias] = pos
					joined = append(joined, m)
				}
			}
			current = joined
		}

		current, err = db.applyCrossFilters(current, p.tables, st.cross)
		if err != nil {
			return err
		}
	}

	// Rows leave in FROM order, as the batch executor's do (inFromOrder).
	sort.SliceStable(current, func(i, j int) bool {
		for _, a := range p.order {
			if current[i][a] != current[j][a] {
				return current[i][a] < current[j][a]
			}
		}
		return false
	})

	// Projection, through the batch executor's: one position column per
	// alias.
	cols := make([][]int32, len(p.order))
	for s, a := range p.order {
		cols[s] = make([]int32, len(current))
		for i, b := range current {
			cols[s][i] = int32(b[a])
		}
	}
	return out.project(ctx, p, cols, len(current))
}

// startRows binds the start relation: an index lookup when the plan has
// one, a filtered scan otherwise.
func (db *Database) startRows(ctx context.Context, p *blockPlan, params Params, stats *Counters) ([]binding, error) {
	t := p.tables[p.start]
	matched, _, ok := p.indexStart(params, stats)
	if !ok {
		return db.scanFiltered(ctx, t, p.start, p.startFilters, params, stats)
	}
	var out []binding
	for i, pos := range matched {
		if i&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ok, err := db.passes(t, pos, p.startFilters, params)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, binding{p.start: pos})
		}
	}
	return out, nil
}

// scanFiltered scans a table, applying constant filters, and returns one
// binding per passing row.
func (db *Database) scanFiltered(ctx context.Context, t *Table, alias string, filters []sqlast.Filter, params Params, stats *Counters) ([]binding, error) {
	n := t.NumRows()
	stats.Scans++
	stats.TuplesRead += int64(n)
	stats.BytesRead += t.scanBytes()
	var out []binding
	for pos := 0; pos < n; pos++ {
		if pos&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !t.Alive(pos) {
			continue
		}
		ok, err := db.passes(t, pos, filters, params)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, binding{alias: pos})
		}
	}
	return out, nil
}

// passes evaluates constant (and same-alias) filters on the row at pos,
// resolving columns and parameters lazily so a bad filter only errors
// when a row actually reaches it.
func (db *Database) passes(t *Table, pos int, filters []sqlast.Filter, params Params) (bool, error) {
	for _, f := range filters {
		li := t.ColumnIndex(f.Col.Column)
		if li < 0 {
			return false, fmt.Errorf("no column %s", f.Col.Column)
		}
		left := t.Cell(pos, li)
		var right Value
		if f.RightCol != nil {
			ri := t.ColumnIndex(f.RightCol.Column)
			if ri < 0 {
				return false, fmt.Errorf("no column %s", f.RightCol.Column)
			}
			right = t.Cell(pos, ri)
		} else {
			var err error
			right, err = literalValue(f.Value, params)
			if err != nil {
				return false, err
			}
		}
		if !satisfies(left, f.Op, right) {
			return false, nil
		}
	}
	return true, nil
}

// applyCrossFilters applies the cross filters the planner scheduled for
// this step (both aliases bound, not consumed as a join edge).
func (db *Database) applyCrossFilters(current []binding, tables map[string]*Table, filters []sqlast.Filter) ([]binding, error) {
	for _, f := range filters {
		lt, rt := tables[f.Col.Alias], tables[f.RightCol.Alias]
		li, ri := lt.ColumnIndex(f.Col.Column), rt.ColumnIndex(f.RightCol.Column)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("bad cross filter %s", f)
		}
		var kept []binding
		for _, b := range current {
			if satisfies(lt.Cell(b[f.Col.Alias], li), f.Op, rt.Cell(b[f.RightCol.Alias], ri)) {
				kept = append(kept, b)
			}
		}
		current = kept
	}
	return current, nil
}

func cloneBinding(b binding) binding {
	m := make(binding, len(b)+1)
	for k, v := range b {
		m[k] = v
	}
	return m
}
