package engine

import "legodb/internal/sqlast"

// Internals the external test package (engine_test) checks: it imports
// colfile, which imports engine, so those tests cannot live in package
// engine itself.

// KeySeed seeds the key hash of a string cell.
var KeySeed = keySeed

// KeyCell is Table.keyCell: a cell and its stored key hash.
func KeyCell(t *Table, pos, ci int) (Value, uint64) { return t.keyCell(pos, ci) }

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = raceEnabled

// ImpliedAliases is impliedAliases against db's catalog: the aliases of b
// a plan leaves out.
func ImpliedAliases(db *Database, b *sqlast.Block) []string { return impliedAliases(b, db.Cat) }

// RefRun is refRun: the definition of q's answer on db.
func RefRun(db *Database, q *sqlast.Query, params Params) (*ResultSet, error) {
	return refRun(db, q, params)
}
