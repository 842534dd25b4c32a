package plancache

// sigmaFor composes two canonical labelings into the vertex
// correspondence between an entry's query and a requesting query with
// the same key: sigma[v] is the entry vertex playing the role of
// request vertex v (both map to the same canonical label). Returns nil
// for the identity correspondence — the common case of re-executing the
// very same query object, which must stay allocation-free.
func sigmaFor(entryLabeling, reqLabeling []int) []int {
	if len(entryLabeling) != len(reqLabeling) {
		return nil
	}
	inv := make([]int, len(entryLabeling)) // canonical label -> entry vertex
	for u, p := range entryLabeling {
		inv[p] = u
	}
	identity := true
	sigma := make([]int, len(reqLabeling))
	for v, p := range reqLabeling {
		sigma[v] = inv[p]
		if sigma[v] != v {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return sigma
}
