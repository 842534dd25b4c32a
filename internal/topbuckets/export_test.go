package topbuckets

// WithWorkers returns o with its tight-bound worker count set to n, for
// the external worker-invariance tests (pin_test.go).
func WithWorkers(o Options, n int) Options {
	o.workers = n
	return o
}
