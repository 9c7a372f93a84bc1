// Package transform implements the XML Schema rewritings of Section 4.1
// of the paper. Each transformation is a semantics-preserving rewriting
// of a physical schema (Union→Options widens the language, exactly as in
// the paper), and applying one produces a new p-schema — and therefore,
// through the fixed mapping, a new relational configuration. The set of
// transformations applicable to a schema defines the search space
// explored by the greedy algorithm.
package transform

import (
	"fmt"

	"legodb/internal/pschema"
	"legodb/internal/xschema"
)

// Kind enumerates the rewriting families of Section 4.1.
type Kind int

const (
	// KindInline replaces a type reference with the referenced body
	// (vertical merge: one table fewer, wider parent).
	KindInline Kind = iota
	// KindOutline gives a nested element its own type (vertical split).
	KindOutline
	// KindUnionDistribute splits a type on a union, a form of horizontal
	// partitioning: show[...(Movie|TV)] becomes (Show_Part1|Show_Part2).
	KindUnionDistribute
	// KindUnionFactorize is the inverse of distribution.
	KindUnionFactorize
	// KindRepetitionSplit rewrites a+ to a,a* so the first occurrence can
	// be inlined as a column.
	KindRepetitionSplit
	// KindRepetitionMerge is the inverse of splitting.
	KindRepetitionMerge
	// KindWildcardMaterialize partitions a wildcard on a concrete label:
	// ~ becomes (label | ~!label).
	KindWildcardMaterialize
	// KindUnionToOptions inlines a union as optional (nullable) content;
	// the only rewriting that widens the schema's language.
	KindUnionToOptions
)

var kindNames = map[Kind]string{
	KindInline:              "inline",
	KindOutline:             "outline",
	KindUnionDistribute:     "union-distribute",
	KindUnionFactorize:      "union-factorize",
	KindRepetitionSplit:     "repetition-split",
	KindRepetitionMerge:     "repetition-merge",
	KindWildcardMaterialize: "wildcard-materialize",
	KindUnionToOptions:      "union-to-options",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AllKinds lists every transformation family.
var AllKinds = []Kind{
	KindInline, KindOutline, KindUnionDistribute, KindUnionFactorize,
	KindRepetitionSplit, KindRepetitionMerge, KindWildcardMaterialize,
	KindUnionToOptions,
}

// Transformation is one applicable rewriting: a kind and its target
// location. WildcardMaterialize additionally carries the label to split
// out and the estimated fraction of instances bearing that label.
type Transformation struct {
	Kind  Kind
	Loc   pschema.Loc
	Label string
	// LabelFraction estimates the fraction of wildcard instances with
	// the materialized label (0 means unknown; 0.5 is assumed).
	LabelFraction float64
}

func (t Transformation) String() string {
	if t.Kind == KindWildcardMaterialize {
		return fmt.Sprintf("%s(%s, %q)", t.Kind, t.Loc, t.Label)
	}
	return fmt.Sprintf("%s(%s)", t.Kind, t.Loc)
}

// Apply applies the transformation to a copy of the schema and verifies
// the result is still a physical schema. The input is never modified.
// The result shares unchanged definitions with s; neither may be
// written afterwards. Only the definition at tr.Loc.Type is copied:
// it is the only one a rewrite writes in place, and whatever a rewrite
// splices into it from elsewhere is a fresh copy.
func Apply(s *xschema.Schema, tr Transformation) (*xschema.Schema, error) {
	return rewrite(s.ShallowClone(), tr)
}

// rewrite applies the transformation to out in place.
func rewrite(out *xschema.Schema, tr Transformation) (*xschema.Schema, error) {
	out.Own(tr.Loc.Type)
	var err error
	switch tr.Kind {
	case KindInline:
		_, err = pschema.Inline(out, tr.Loc)
	case KindOutline:
		_, err = pschema.Outline(out, tr.Loc)
	case KindUnionDistribute:
		err = unionDistribute(out, tr.Loc)
	case KindUnionFactorize:
		err = unionFactorize(out, tr.Loc)
	case KindRepetitionSplit:
		err = repetitionSplit(out, tr.Loc)
	case KindRepetitionMerge:
		err = repetitionMerge(out, tr.Loc)
	case KindWildcardMaterialize:
		err = wildcardMaterialize(out, tr.Loc, tr.Label, tr.LabelFraction)
	case KindUnionToOptions:
		err = pschema.FlattenUnionAt(out, tr.Loc)
	default:
		err = fmt.Errorf("transform: unknown kind %v", tr.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("transform: %s: %w", tr, err)
	}
	out.GarbageCollect()
	if err := pschema.Check(out); err != nil {
		return nil, fmt.Errorf("transform: %s left a non-physical schema: %w", tr, err)
	}
	return out, nil
}

// Options configures candidate enumeration.
type Options struct {
	// Kinds restricts enumeration to the given families (nil = AllKinds).
	Kinds []Kind
	// WildcardLabels lists element names worth materializing out of
	// wildcards (typically the names the query workload mentions), with
	// their estimated instance fractions.
	WildcardLabels map[string]float64
}

// Candidates enumerates every applicable transformation of the requested
// kinds on the given p-schema.
func Candidates(s *xschema.Schema, opts Options) []Transformation {
	kinds := opts.Kinds
	if kinds == nil {
		kinds = AllKinds
	}
	var out []Transformation
	for _, k := range kinds {
		switch k {
		case KindInline:
			for _, loc := range pschema.InlineCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindOutline:
			for _, loc := range pschema.OutlineCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindUnionDistribute:
			for _, loc := range unionDistributeCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindUnionFactorize:
			for _, loc := range unionFactorizeCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindRepetitionSplit:
			for _, loc := range repetitionSplitCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindRepetitionMerge:
			for _, loc := range repetitionMergeCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		case KindWildcardMaterialize:
			for _, loc := range wildcardCandidates(s) {
				for label, frac := range opts.WildcardLabels {
					out = append(out, Transformation{Kind: k, Loc: loc, Label: label, LabelFraction: frac})
				}
			}
		case KindUnionToOptions:
			for _, loc := range unionToOptionsCandidates(s) {
				out = append(out, Transformation{Kind: k, Loc: loc})
			}
		}
	}
	return out
}
