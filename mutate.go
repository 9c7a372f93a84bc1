package legodb

import (
	"fmt"

	"legodb/internal/xmltree"
	"legodb/internal/xquery"
)

// Executable mutations over a store: deletes with subtree cascade and
// child inserts. These complement the advisory update costing
// (Engine.AddUpdate): a workload can be both priced and run.

// DeleteWhere removes every element instance matched by a target query —
// a FLWR expression whose RETURN is a single whole-element path — along
// with its entire subtree. It returns the number of rows removed across
// all relations.
//
//	n, err := store.DeleteWhere(
//	    `FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`,
//	    legodb.Params{"c1": "Fugitive, The"})
func (s *Store) DeleteWhere(text string, params Params) (int, error) {
	q, err := xquery.Parse(text)
	if err != nil {
		return 0, err
	}
	deleted, generation, err := s.deleteWhere(q, params)
	if generation {
		s.retuneIndexes()
	}
	return deleted, err
}

// deleteWhere is DeleteWhere under the write lock; generation reports
// that observing the mutation completed an observer generation (the
// caller retunes the indexes once the lock is released).
func (s *Store) deleteWhere(q *xquery.Query, params Params) (deleted int, generation bool, err error) {
	// Translate under the lock: a live migration may swap the catalog,
	// and target blocks must execute against the catalog they were
	// translated for.
	s.mu.Lock()
	defer s.mu.Unlock()
	targets, err := xquery.TranslateTargets(q, s.schema, s.catalog)
	if err != nil {
		return 0, false, err
	}
	s.mutEpoch++
	for _, tgt := range targets {
		rs, err := s.db.ExecuteBlock(tgt.Block, params.values())
		if err != nil {
			return deleted, false, err
		}
		for _, row := range rs.Rows {
			pos := s.shredder.FindRowByID(tgt.TypeName, row[0].Int)
			if pos < 0 {
				continue // already cascaded away by an earlier target
			}
			n, err := s.shredder.DeleteInstance(tgt.TypeName, pos)
			if err != nil {
				return deleted, false, err
			}
			deleted += n
		}
	}
	return deleted, s.observeMutation(q, xquery.DeleteUpdate, ""), nil
}

// InsertChild shreds an XML fragment as a new child of every element
// matched by the parent query (a FLWR expression whose RETURN is a
// single whole-element path). It returns the number of parents extended.
//
//	n, err := store.InsertChild(
//	    `FOR $s IN imdb/show WHERE $s/title = c1 RETURN $s`,
//	    legodb.Params{"c1": "Fugitive, The"},
//	    `<aka>Le Fugitif</aka>`)
func (s *Store) InsertChild(parentQuery string, params Params, fragmentXML string) (int, error) {
	fragment, err := xmltree.ParseString(fragmentXML)
	if err != nil {
		return 0, fmt.Errorf("legodb: fragment: %w", err)
	}
	q, err := xquery.Parse(parentQuery)
	if err != nil {
		return 0, err
	}
	inserted, generation, err := s.insertChild(q, params, fragment)
	if generation {
		s.retuneIndexes()
	}
	return inserted, err
}

// insertChild is InsertChild under the write lock (see deleteWhere).
func (s *Store) insertChild(q *xquery.Query, params Params, fragment *xmltree.Node) (inserted int, generation bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	targets, err := xquery.TranslateTargets(q, s.schema, s.catalog)
	if err != nil {
		return 0, false, err
	}
	s.mutEpoch++
	for _, tgt := range targets {
		rs, err := s.db.ExecuteBlock(tgt.Block, params.values())
		if err != nil {
			return inserted, false, err
		}
		for _, row := range rs.Rows {
			if _, err := s.shredder.InsertChild(tgt.TypeName, row[0].Int, fragment.Clone()); err != nil {
				return inserted, false, fmt.Errorf("legodb: %w", err)
			}
			inserted++
		}
	}
	return inserted, s.observeMutation(q, xquery.InsertUpdate, fragment.Name), nil
}

// observeMutation records a mutation's shape in the observed workload as
// an update operation: the target query's RETURN path expanded to a
// document-rooted path (plus the inserted child's name for inserts),
// located by the name-stripped target query itself. Mutations whose
// target cannot be expanded — which TranslateTargets would have rejected
// anyway — are simply not recorded. It reports whether the observation
// completed an observer generation.
func (s *Store) observeMutation(q *xquery.Query, kind xquery.UpdateKind, child string) bool {
	if len(q.Return) != 1 || q.Return[0].Path == nil {
		return false
	}
	path, ok := docPath(q, *q.Return[0].Path)
	if !ok {
		return false
	}
	if child != "" {
		path.Steps = append(path.Steps, child)
	}
	locate := *q
	locate.Name = ""
	return s.obs.observeUpdate(&xquery.Update{Kind: kind, Path: path, Locate: &locate})
}

// docPath expands a variable-rooted path to a document-rooted one by
// splicing in the binding chain ($e IN $v/episode, $v IN imdb/show
// makes $e/title into imdb/show/episode/title).
func docPath(q *xquery.Query, p xquery.Path) (xquery.Path, bool) {
	steps := append([]string(nil), p.Steps...)
	for v := p.Var; v != ""; {
		found := false
		for _, b := range q.Bindings {
			if b.Var == v {
				steps = append(append([]string(nil), b.Path.Steps...), steps...)
				v = b.Path.Var
				found = true
				break
			}
		}
		if !found {
			return xquery.Path{}, false
		}
	}
	return xquery.Path{Steps: steps}, true
}
