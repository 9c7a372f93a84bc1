package xquery

import (
	"fmt"
	"strings"

	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xschema"
)

// Update support — the paper lists "including updates in our workload"
// as future work (Section 7); this implements it. An update names a
// document path and an operation kind; resolving it against a physical
// schema yields the relations the operation must write, which the cost
// model prices (fragmented configurations pay one seek per relation on
// insert; wide inlined relations pay more bytes per rewrite).

// UpdateKind enumerates update operations.
type UpdateKind int

const (
	// InsertUpdate adds a new element (and its subtree) at the path.
	InsertUpdate UpdateKind = iota
	// DeleteUpdate removes an element (and its subtree) at the path.
	DeleteUpdate
	// ModifyUpdate rewrites the value of an existing element.
	ModifyUpdate
)

func (k UpdateKind) String() string {
	switch k {
	case InsertUpdate:
		return "INSERT"
	case DeleteUpdate:
		return "DELETE"
	case ModifyUpdate:
		return "MODIFY"
	default:
		return fmt.Sprintf("UpdateKind(%d)", int(k))
	}
}

// Update is one update operation in a workload.
type Update struct {
	Name string
	Kind UpdateKind
	Path Path
	// Locate is the name-stripped target query an executed mutation
	// found its targets with; declared updates have none. It is part of
	// the update's shape, and the index chooser prices it as the read it
	// is (the blocks TranslateTargets returns for it).
	Locate *Query
}

func (u *Update) String() string {
	if u.Locate == nil {
		return fmt.Sprintf("%s %s", u.Kind, u.Path)
	}
	return fmt.Sprintf("%s %s AT %s", u.Kind, u.Path, u.Locate)
}

// ParseUpdate parses "INSERT imdb/show/aka", "DELETE imdb/show" or
// "MODIFY imdb/show/description". A leading "(: name :)" comment — the
// same report-label idiom queries use — becomes the update's Name; the
// name never participates in the canonical String rendering, so labeled
// and unlabeled texts share one shape.
func ParseUpdate(src string) (*Update, error) {
	src = strings.TrimSpace(src)
	u := &Update{}
	if strings.HasPrefix(src, "(:") {
		end := strings.Index(src, ":)")
		if end < 0 {
			return nil, fmt.Errorf("xquery: unterminated comment in update %q", src)
		}
		u.Name = strings.TrimSpace(src[2:end])
		src = strings.TrimSpace(src[end+2:])
	}
	fields := strings.Fields(src)
	if len(fields) != 2 {
		return nil, fmt.Errorf("xquery: update must be '<KIND> <path>', got %q", src)
	}
	switch strings.ToUpper(fields[0]) {
	case "INSERT":
		u.Kind = InsertUpdate
	case "DELETE":
		u.Kind = DeleteUpdate
	case "MODIFY":
		u.Kind = ModifyUpdate
	default:
		return nil, fmt.Errorf("xquery: unknown update kind %q", fields[0])
	}
	steps := xschema.ParsePath(fields[1])
	if len(steps) == 0 {
		return nil, fmt.Errorf("xquery: update path is empty")
	}
	u.Path = Path{Steps: steps}
	return u, nil
}

// MustParseUpdate is ParseUpdate that panics on error.
func MustParseUpdate(src string) *Update {
	u, err := ParseUpdate(src)
	if err != nil {
		panic(err)
	}
	return u
}

// UpdateTarget describes, for one schema alternative of the update path,
// where the operation writes: the relation holding the element's direct
// content and the relations of its descendant content.
type UpdateTarget struct {
	// Table holds the element's own row (or the ancestor row its content
	// is inlined into).
	Table string
	// Inlined is true when the element has no row of its own (its
	// content lives in columns of Table); inserts then rewrite the
	// ancestor row instead of adding one.
	Inlined bool
	// Subtree lists the distinct relations storing descendant content
	// (excluding Table itself); an insert or delete of the element
	// writes them too.
	Subtree []string
}

// ResolveUpdate binds the update path against a physical schema and
// returns one target per alternative (union-partitioned types produce
// several).
func ResolveUpdate(u *Update, s *xschema.Schema, cat *relational.Catalog) ([]UpdateTarget, error) {
	targets, _, err := resolveUpdate(u, s, cat, false)
	return targets, err
}

// ResolveUpdateDeps is ResolveUpdate, additionally reporting the named
// types the resolution examined — the same dependency contract as
// TranslateDeps (update costs are a function of the root name, the
// examined definitions and their tables).
func ResolveUpdateDeps(u *Update, s *xschema.Schema, cat *relational.Catalog) ([]UpdateTarget, []string, error) {
	return resolveUpdate(u, s, cat, true)
}

func resolveUpdate(u *Update, s *xschema.Schema, cat *relational.Catalog, track bool) ([]UpdateTarget, []string, error) {
	tr := &translator{schema: s, cat: cat, track: track}
	// resolvePath records joins in a scratch block; only the reached
	// targets matter here.
	resolutions, err := tr.resolvePath(&context{}, u.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("xquery: update %s: %w", u, err)
	}
	if len(resolutions) == 0 {
		return nil, nil, fmt.Errorf("xquery: update %s: path matches nothing in the schema", u)
	}
	var out []UpdateTarget
	for _, r := range resolutions {
		ut := UpdateTarget{
			Table:   cat.TableOf[r.tgt.typeName],
			Inlined: len(r.tgt.prefix) > 0,
		}
		content, err := tr.contentAt(r.tgt.typeName, r.tgt.prefix)
		if err != nil {
			return nil, nil, err
		}
		var chains [][]string
		tr.collectDescendants(content, nil, &chains)
		seen := map[string]bool{ut.Table: true}
		for _, chain := range chains {
			tbl := cat.TableOf[chain[len(chain)-1]]
			if tbl != "" && !seen[tbl] {
				seen[tbl] = true
				ut.Subtree = append(ut.Subtree, tbl)
			}
		}
		out = append(out, ut)
	}
	return out, tr.deps, nil
}

// TargetBlock is the executable form of a whole-element target: an SPJ
// block projecting the target relation's key, one per schema
// alternative. Executing the block yields the ids of the matched
// instances — the handles mutations operate on.
type TargetBlock struct {
	Block    *sqlast.Block
	TypeName string
}

// TranslateTargets resolves a query whose RETURN is a single
// whole-element path into target blocks: the bindings and WHERE clause
// apply, and each block projects the target relation's key column.
// Inlined targets (content without a row of its own) are rejected.
func TranslateTargets(q *Query, s *xschema.Schema, cat *relational.Catalog) ([]TargetBlock, error) {
	if len(q.Return) != 1 || q.Return[0].Path == nil {
		return nil, fmt.Errorf("xquery: %s: target queries must RETURN exactly one path", q.Name)
	}
	tr := &translator{schema: s, cat: cat}
	ctxs, err := tr.applyBindings([]*context{{}}, q.Bindings)
	if err != nil {
		return nil, fmt.Errorf("xquery: %s: %w", q.Name, err)
	}
	ctxs, err = tr.applyWhere(ctxs, q.Where)
	if err != nil {
		return nil, fmt.Errorf("xquery: %s: %w", q.Name, err)
	}
	var out []TargetBlock
	for _, ctx := range ctxs {
		resolutions, err := tr.resolvePath(ctx, *q.Return[0].Path)
		if err != nil {
			return nil, err
		}
		for _, r := range resolutions {
			if len(r.tgt.prefix) > 0 {
				return nil, fmt.Errorf("xquery: %s: target %s is inlined content, not an element instance",
					q.Name, q.Return[0].Path)
			}
			table := cat.Table(cat.TableOf[r.tgt.typeName])
			if table == nil {
				return nil, fmt.Errorf("xquery: %s: no table for type %s", q.Name, r.tgt.typeName)
			}
			b := r.ctx.block.Clone()
			b.Projects = []sqlast.ColumnRef{{Alias: r.tgt.alias, Column: table.Key()}}
			out = append(out, TargetBlock{Block: b, TypeName: r.tgt.typeName})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("xquery: %s: target path matches nothing", q.Name)
	}
	return out, nil
}
