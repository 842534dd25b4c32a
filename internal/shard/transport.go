package shard

import (
	"context"
	"fmt"
	"io"
	"net"
)

// InProcess spins up n shard workers inside this process, each serving
// one end of a net.Pipe, and returns the coordinator wired to them plus
// the workers themselves (for test introspection — pin stats, replica
// epochs). Every frame still crosses the full wire codec, so the
// in-process cluster exercises exactly the protocol a TCP cluster does,
// just without sockets.
func InProcess(n int) (*Cluster, []*Worker, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("shard: need at least 1 worker, got %d", n)
	}
	workers := make([]*Worker, n)
	conns := make([]io.ReadWriteCloser, n)
	for i := range workers {
		workerEnd, coordEnd := net.Pipe()
		w := NewWorker()
		workers[i] = w
		conns[i] = coordEnd
		go func() { _ = w.Serve(workerEnd) }()
	}
	return NewCluster(conns), workers, nil
}

// Dial connects to shard workers (cmd/tkij-worker processes) at addrs
// over TCP and returns the coordinator. The context bounds connection
// establishment only; per-query deadlines come from the query's own
// context.
func Dial(ctx context.Context, addrs []string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: need at least one worker address")
	}
	var d net.Dialer
	conns := make([]io.ReadWriteCloser, 0, len(addrs))
	for _, addr := range addrs {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, fmt.Errorf("shard: dialing worker %s: %w", addr, err)
		}
		conns = append(conns, conn)
	}
	return NewCluster(conns), nil
}
