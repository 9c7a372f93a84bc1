package transform

import "legodb/internal/xschema"

// RefApply is the reference Apply of the sharing differential
// (TestApplyMatchesDeepCopy): it rewrites a deep copy of the whole
// schema, so its result shares no definition with s.
func RefApply(s *xschema.Schema, tr Transformation) (*xschema.Schema, error) {
	return rewrite(s.Clone(), tr)
}
