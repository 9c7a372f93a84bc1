package core

import (
	"context"
	"fmt"

	"legodb/internal/optimizer"
	"legodb/internal/plan"
	"legodb/internal/relational"
	"legodb/internal/sqlast"
	"legodb/internal/xquery"
	"legodb/internal/xschema"
)

// Incremental evaluation: a candidate costs what its base cost, except
// where the move reached.
//
// A greedy move rewrites exactly one named type, and the layers below
// the evaluator already keep everything else by pointer:
// transform.Apply gives the candidate every untouched definition of its
// base, and the evaluator's relational.Mapper returns the very *Table it
// built before whenever a table's mapping inputs did not move. So each
// complete Config records, per workload slot, the named types its
// translation examined together with the definition and the table it
// saw for each (slotRecord). A candidate evaluated from that Config
// reuses the slot's cost and translated query when its root is the same
// and every recorded pointer is identical in the candidate; any other
// slot translates and costs through plan.Space.
//
// Soundness: translation is a deterministic function of the root name,
// the examined definitions and their tables (xquery.TranslateDeps), and
// costing reads only the tables the translation referenced. Definitions
// and tables are never written once built (transform.Apply's and the
// Mapper's contract; TestSearchLeavesBasesUntouched checks it), so an
// identical pointer is an identical input and the reused cost is the
// stored output of an identical computation. The reference tests
// (reference_test.go) check the whole search against a memo-free
// Algorithm 4.1.

// slotRecord is what one workload slot of a complete Config read and
// cost: the named types its translation examined, in examination order,
// with the definition and table it saw for each.
type slotRecord struct {
	deps []depRef
	cost float64
}

// depRef is one examined type: its name, the definition it had
// (ps.Types[name], nil when undefined) and its table (nil for an alias
// or an unmapped name).
type depRef struct {
	name  string
	def   xschema.Type
	table *relational.Table
}

// tableOf returns a type's table in a catalog, nil for an alias or a
// name the catalog does not map.
func tableOf(cat *relational.Catalog, name string) *relational.Table {
	if tn := cat.TableOf[name]; tn != "" {
		return cat.Table(tn)
	}
	return nil
}

// newSlotRecord records what a translation read from ps and cat.
func newSlotRecord(deps []string, ps *xschema.Schema, cat *relational.Catalog, cost float64) slotRecord {
	refs := make([]depRef, len(deps))
	for i, name := range deps {
		refs[i] = depRef{name: name, def: ps.Types[name], table: tableOf(cat, name)}
	}
	return slotRecord{deps: refs, cost: cost}
}

// reusable reports whether every definition and table the slot's
// translation read is the identical object in ps and cat. The caller
// checks the root.
func (r *slotRecord) reusable(ps *xschema.Schema, cat *relational.Catalog) bool {
	for i := range r.deps {
		d := &r.deps[i]
		if ps.Types[d.name] != d.def || tableOf(cat, d.name) != d.table {
			return false
		}
	}
	return true
}

// acquireDigests computes the schema's shallow type digests into a
// pooled map; release with releaseDigests.
func (e *Evaluator) acquireDigests(ps *xschema.Schema) map[string]xschema.Fingerprint {
	m, _ := e.digPool.Get().(map[string]xschema.Fingerprint)
	if m == nil {
		m = make(map[string]xschema.Fingerprint, len(ps.Types))
	}
	return ps.TypeDigestsInto(m)
}

func (e *Evaluator) releaseDigests(m map[string]xschema.Fingerprint) {
	e.digPool.Put(m)
}

// blockStoreFor returns the block-costing memo the evaluator's plan
// spaces feed: the shared cache's when one is attached (so sibling
// candidates and repeated searches share block costings for tables whose
// statistics did not change), the evaluator's own otherwise.
func (e *Evaluator) blockStoreFor() *plan.Store {
	if e.Cache != nil {
		return &e.Cache.blocks
	}
	return &e.localBlocks
}

// sharedMapper returns the evaluator's memoizing relational mapper.
func (e *Evaluator) sharedMapper() *relational.Mapper {
	e.mapperOnce.Do(func() {
		e.mapper = relational.NewMapper(relational.Options{RootCount: e.RootCount})
	})
	return e.mapper
}

// evaluate is the evaluator's pipeline: the paper's map-translate-cost
// in the plain pipeline's summation order, where each workload slot
// first checks whether base's record of it still holds. base is the
// configuration ps was derived from, or nil; it must come from an
// evaluator with the same workload and cost model, and a cost-only base
// (a cost-cache hit, which records no slots) lends nothing. The result
// is always a complete Config.
func (e *Evaluator) evaluate(ctx context.Context, ps *xschema.Schema, base *Config) (Config, error) {
	e.evals.Add(1)
	nq := len(e.Workload.Entries)
	nslots := nq + len(e.Workload.Updates)
	if base != nil && (len(base.slots) != nslots || base.Schema.Root != ps.Root) {
		base = nil
	}
	digests := e.acquireDigests(ps)
	cat, err := e.sharedMapper().Map(ps, digests)
	e.releaseDigests(digests)
	if err != nil {
		return Config{}, err
	}
	var opt *optimizer.Optimizer
	getOpt := func() *optimizer.Optimizer {
		if opt == nil {
			opt = optimizer.New(cat)
			if e.Model != nil {
				opt.Model = *e.Model
			}
		}
		return opt
	}
	// The plan space is per-evaluation (it threads this catalog's table
	// digests into its memo keys); the store behind it outlives the
	// evaluation. Lazily built: evaluations whose every slot is reused
	// never cost a block.
	var space *plan.Space
	getSpace := func() *plan.Space {
		if space == nil {
			space = plan.NewSpace(getOpt(), ModelID(e.Model), e.blockStoreFor())
		}
		return space
	}
	defer func() {
		if space != nil {
			e.blocksReq.Add(space.Requested)
			e.blocksCosted.Add(space.Computed)
		}
	}()
	queries := make([]*sqlast.Query, nq)
	slots := make([]slotRecord, nslots)
	reuse := func(slot int) bool {
		if base != nil && base.slots[slot].reusable(ps, cat) {
			slots[slot] = base.slots[slot]
			e.qhits.Add(1)
			return true
		}
		e.qmisses.Add(1)
		return false
	}
	total, wsum := 0.0, 0.0
	for i, entry := range e.Workload.Entries {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		if reuse(i) {
			queries[i] = base.Queries[i]
		} else {
			sq, deps, err := xquery.TranslateDeps(entry.Query, ps, cat)
			if err != nil {
				return Config{}, err
			}
			e.translations.Add(1)
			cost, err := getSpace().QueryCost(sq)
			if err != nil {
				return Config{}, err
			}
			queries[i], slots[i] = sq, newSlotRecord(deps, ps, cat, cost)
		}
		total += slots[i].cost * entry.Weight
		wsum += entry.Weight
	}
	for j, ue := range e.Workload.Updates {
		if err := ctx.Err(); err != nil {
			return Config{}, err
		}
		slot := nq + j
		if !reuse(slot) {
			targets, deps, err := xquery.ResolveUpdateDeps(ue.Update, ps, cat)
			if err != nil {
				return Config{}, err
			}
			cost, err := getOpt().UpdateCost(ue.Update, targets)
			if err != nil {
				return Config{}, err
			}
			e.translations.Add(1)
			slots[slot] = newSlotRecord(deps, ps, cat, cost)
		}
		total += slots[slot].cost * ue.Weight
		wsum += ue.Weight
	}
	if wsum == 0 {
		return Config{}, fmt.Errorf("core: workload has zero total weight")
	}
	return Config{Schema: ps, Catalog: cat, Queries: queries, Cost: total / wsum, slots: slots}, nil
}
