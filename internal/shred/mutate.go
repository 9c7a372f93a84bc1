package shred

import (
	"fmt"
	"slices"

	"legodb/internal/engine"
	"legodb/internal/relational"
	"legodb/internal/xmltree"
)

// Mutation support: executable inserts and deletes over a shredded
// database, complementing the cost model's update pricing.

// DeleteInstance tombstones the row at pos in typeName's relation and,
// recursively, every descendant row reachable through parent foreign
// keys. It returns the number of rows deleted.
func (sh *Shredder) DeleteInstance(typeName string, pos int) (int, error) {
	tableName := sh.Cat.TableOf[typeName]
	t := sh.DB.Table(tableName)
	if t == nil {
		return 0, fmt.Errorf("shred: no table for type %q", typeName)
	}
	if pos < 0 || pos >= t.NumRows() {
		return 0, fmt.Errorf("shred: position %d out of range for %s", pos, tableName)
	}
	if !t.Alive(pos) {
		return 0, nil
	}
	keyIdx := t.ColumnIndex(t.Def.Key())
	id := t.Cell(pos, keyIdx)
	t.MarkDeleted(pos)
	deleted := 1
	for _, childName := range sh.Cat.Order {
		child := sh.DB.Table(childName)
		for _, e := range child.Def.Parents {
			if e.Parent != tableName {
				continue
			}
			positions, _ := child.Lookup(e.FKColumn, id)
			for _, p := range positions {
				n, err := sh.DeleteInstance(child.Def.TypeName, p)
				if err != nil {
					return deleted, err
				}
				deleted += n
			}
		}
	}
	return deleted, nil
}

// InsertChild shreds node as a new child instance of the parent row
// identified by (parentType, parentID): the node is matched against the
// element- and wildcard-bodied child types of the parent's relation, in
// catalog order, and inserted into the first type it instantiates — in
// the same single pass as Shred, so nothing is written unless it
// matches. It returns the new row's id.
func (sh *Shredder) InsertChild(parentType string, parentID int64, node *xmltree.Node) (int64, error) {
	parentTable := sh.Cat.TableOf[parentType]
	if sh.DB.Table(parentTable) == nil {
		return 0, fmt.Errorf("shred: no table for parent type %q", parentType)
	}
	for _, childName := range sh.Cat.Order {
		child := sh.DB.Table(childName)
		if !slices.ContainsFunc(child.Def.Parents, func(e *relational.Edge) bool { return e.Parent == parentTable }) {
			continue
		}
		img := sh.images[child.Def.TypeName]
		if img == nil || img.self.op != opElem && img.self.op != opAny {
			continue
		}
		r, ok := sh.element(img.self, node)
		if !ok {
			continue
		}
		sh.cells = sh.cells[:0]
		rows, err := sh.flatten(img, r, -1, nil)
		if err != nil {
			return 0, err
		}
		return sh.insert(rows, parentTable, parentID)
	}
	return 0, fmt.Errorf("shred: <%s> does not instantiate any child type of %s", node.Name, parentType)
}

// FindRowByID returns the live position of the row with the given key in
// typeName's relation (-1 when absent).
func (sh *Shredder) FindRowByID(typeName string, id int64) int {
	t := sh.DB.Table(sh.Cat.TableOf[typeName])
	if t == nil {
		return -1
	}
	positions, ok := t.Lookup(t.Def.Key(), engine.IntVal(id))
	if !ok || len(positions) == 0 {
		return -1
	}
	return positions[0]
}
