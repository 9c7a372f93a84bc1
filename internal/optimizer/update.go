package optimizer

import (
	"fmt"

	"legodb/internal/xquery"
)

// UpdateCost prices one update operation, averaged over the schema
// alternatives its path binds to (a document element lives in exactly
// one partition of a union-distributed type).
//
// The model exposes the inline-vs-fragment tension the paper's future
// work points at:
//
//   - inserting or deleting an element writes one row in its own
//     relation and one in each relation holding descendant content —
//     fragmented configurations pay one seek and one index update per
//     relation;
//   - modifying a value rewrites the (fixed-width) row that holds it —
//     wide inlined relations pay more bytes per rewrite.
func (o *Optimizer) UpdateCost(u *xquery.Update, targets []xquery.UpdateTarget) (float64, error) {
	if len(targets) == 0 {
		return 0, fmt.Errorf("optimizer: update %s has no targets", u)
	}
	total := 0.0
	for _, tgt := range targets {
		total += o.targetCost(u.Kind, tgt)
	}
	return total / float64(len(targets)), nil
}

func (o *Optimizer) targetCost(kind xquery.UpdateKind, tgt xquery.UpdateTarget) float64 {
	m := o.Model
	rowWrite := func(table string) float64 {
		t := o.Cat.Table(table)
		if t == nil {
			return 0
		}
		// One index on the key, one per foreign key, one per chosen
		// secondary index (a column that is several of these has one).
		indexes := 0.0
		for _, c := range t.Columns {
			if c.Maintained() {
				indexes++
			}
		}
		return m.SeekCost + t.RowBytes()*m.WriteByteCost + indexes*m.IndexWriteCost
	}
	switch kind {
	case xquery.ModifyUpdate:
		// Rewrite the row holding the value. Which column changes is not
		// known here, so no index maintenance is charged.
		t := o.Cat.Table(tgt.Table)
		if t == nil {
			return 0
		}
		return m.SeekCost + t.RowBytes()*m.WriteByteCost
	default: // insert, delete
		cost := rowWrite(tgt.Table)
		if tgt.Inlined {
			// The element has no row of its own: the ancestor row is
			// rewritten rather than inserted, so no index maintenance on
			// it.
			t := o.Cat.Table(tgt.Table)
			if t != nil {
				cost = m.SeekCost + t.RowBytes()*m.WriteByteCost
			}
		}
		for _, sub := range tgt.Subtree {
			cost += rowWrite(sub)
		}
		return cost
	}
}
