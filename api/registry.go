package api

// This file is the single registration table of the query surface's
// algorithm names: which algorithms exist, their accepted alternate
// spellings, which measure they are pinned to (if any), which per-query
// parameter is theirs, and whether they bind server-side registered state
// (a learned policy, a trajectory encoder). Engine resolution, server
// routes and client-side validation all consult this table, so adding an
// algorithm — or pinning one to a new measure — is one edit here plus its
// implementation, instead of a hunt through per-layer name switches.
// Measure names themselves stay dynamic: the sim registry holds the served
// measures that need no model, and the serving engine binds "t2vec" to its
// registered encoder, so a new measure needs no entry here unless an
// algorithm is pinned to it.

// AlgorithmInfo describes one search algorithm accepted on the wire.
type AlgorithmInfo struct {
	// Name is the canonical lower-case algorithm name.
	Name string
	// Aliases are alternate accepted spellings, normalized to Name.
	Aliases []string
	// Measure, when non-empty, pins the algorithm to that single measure:
	// pairing it with any other is an invalid_argument, never a silently
	// mislabeled distance.
	Measure string
	// Param, when non-empty, names the only per-query parameter scoped to
	// this algorithm.
	Param string
	// NeedsPolicy marks the learned searches, which bind a policy
	// registered on the serving engine (-policy / POST /v2/admin/policy).
	NeedsPolicy bool
	// NeedsEncoder marks embedding ranking, which binds an encoder
	// registered on the serving engine (-encoder / POST /v2/admin/encoder).
	NeedsEncoder bool
}

// algorithms is the registration table. Order is the documentation order.
var algorithms = []AlgorithmInfo{
	{Name: "exacts"},
	{Name: "sizes"},
	{Name: "pss"},
	{Name: "pos"},
	{Name: "pos-d", Aliases: []string{"posd"}, Param: "pos_delay"},
	{Name: "rls", NeedsPolicy: true},
	{Name: "rls-skip", NeedsPolicy: true},
	{Name: "embed", Measure: "t2vec", NeedsEncoder: true},
}

// Algorithms returns the registration table (a copy).
func Algorithms() []AlgorithmInfo {
	out := make([]AlgorithmInfo, len(algorithms))
	copy(out, algorithms)
	return out
}

// AlgorithmNames returns the canonical algorithm names in table order.
func AlgorithmNames() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.Name
	}
	return out
}

// LookupAlgorithm resolves a wire algorithm name (canonical or alias) to
// its table entry.
func LookupAlgorithm(name string) (AlgorithmInfo, bool) {
	for _, a := range algorithms {
		if a.Name == name {
			return a, true
		}
		for _, alias := range a.Aliases {
			if alias == name {
				return a, true
			}
		}
	}
	return AlgorithmInfo{}, false
}

// CheckAlgorithm validates an algorithm name against the table and its
// measure pinning, returning the entry on success. It does NOT check that
// the measure itself is served — measure names are dynamic (the sim
// registry, plus "t2vec" while an encoder is registered) and the serving
// engine rejects unknown ones, and "t2vec" on an engine with no encoder.
func CheckAlgorithm(measure, algorithm string) (AlgorithmInfo, *Error) {
	info, ok := LookupAlgorithm(algorithm)
	if !ok {
		return AlgorithmInfo{}, Errorf(CodeInvalidArgument, "unknown algorithm %q (have %v)", algorithm, AlgorithmNames())
	}
	if info.Measure != "" && measure != info.Measure {
		return AlgorithmInfo{}, Errorf(CodeInvalidArgument,
			"algorithm %q is specific to measure %q and ignores measure %q; use measure %q",
			algorithm, info.Measure, measure, info.Measure)
	}
	return info, nil
}
