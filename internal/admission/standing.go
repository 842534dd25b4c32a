package admission

import (
	"context"

	"tkij/internal/query"
	"tkij/internal/standing"
)

// Subscribe registers a continuous top-k subscription: q executes once
// at the current epoch and the returned subscription's Deltas channel
// carries that initial snapshot followed by one incremental delta per
// ingest push (see internal/standing). k <= 0 uses the engine's
// Options.K; the subscription lives until ctx is canceled, its Close is
// called, or the server closes.
func (s *Server) Subscribe(ctx context.Context, q *query.Query, k int, opts standing.SubOptions) (*standing.Subscription, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.standing == nil {
		s.standing = standing.NewManager(s.e)
	}
	m := s.standing
	s.mu.Unlock()
	return m.Subscribe(ctx, q, k, opts)
}

// StandingStats returns the standing-query manager's counters (the
// zero Stats before the first Subscribe).
func (s *Server) StandingStats() standing.Stats {
	s.mu.Lock()
	m := s.standing
	s.mu.Unlock()
	if m == nil {
		return standing.Stats{}
	}
	return m.Stats()
}
