package experiments

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny returns a configuration that runs every driver in seconds.
func tiny() Config { return Config{Scale: 0.02, Reducers: 4} }

func TestAllDriversAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, d := range registry {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			start := time.Now()
			tables, err := d.Run(context.Background(), tiny())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				var buf bytes.Buffer
				tb.Fprint(&buf)
				if !strings.Contains(buf.String(), tb.ID) {
					t.Errorf("rendered table missing ID %s", tb.ID)
				}
			}
			t.Logf("%d tables in %v", len(tables), time.Since(start))
		})
	}
}

// TestCanceledContextAborts locks in the context threading: a caller's
// cancellation must reach the engine executions inside a driver
// (before the fix, drivers fabricated context.Background() and ran to
// completion regardless).
func TestCanceledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig8Workload(ctx, tiny()); err == nil {
		t.Fatal("Fig8Workload ran to completion on a canceled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in error chain, got %v", err)
	}
	if _, err := All(ctx, tiny()); !errors.Is(err, context.Canceled) {
		t.Fatalf("All: want context.Canceled, got %v", err)
	}
}

func TestByID(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	tables, err := ByID(context.Background(), "fig12", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("fig12 tables = %d", len(tables))
	}

	// The unknown-id error names exactly the registry's ids, in order.
	_, err = ByID(context.Background(), "nope", tiny())
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if want := "(want one of " + strings.Join(IDs(), ", ") + " or all)"; !strings.Contains(err.Error(), want) {
		t.Errorf("unknown-id error = %q, want it to contain %q", err, want)
	}

	// "all" runs every registered driver exactly once, in order. Stub
	// drivers keep this a check of the dispatch, not a second sweep.
	saved := registry
	defer func() { registry = saved }()
	registry = slices.Clone(saved)
	var ran []string
	for i := range registry {
		id := registry[i].ID
		registry[i].Run = func(context.Context, Config) ([]*Table, error) {
			ran = append(ran, id)
			return []*Table{{ID: id}}, nil
		}
	}
	tables, err = ByID(context.Background(), "all", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ran, IDs()) || len(tables) != len(ran) {
		t.Errorf("all ran %v and returned %d tables, want one run each of %v", ran, len(tables), IDs())
	}
}
