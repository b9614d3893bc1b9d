package talign

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"talign/internal/plan"
)

// TestDSNBatchOption covers the batch= option on both schemes: it must
// reach the embedded planner flags, survive on remote DSNs (whose other
// query options are embedded-only), and reject junk.
func TestDSNBatchOption(t *testing.T) {
	cfg, err := parseDSN("talign://mem?batch=512")
	if err != nil {
		t.Fatalf("parseDSN: %v", err)
	}
	if cfg.batch != 512 {
		t.Fatalf("embedded batch = %d, want 512", cfg.batch)
	}
	if got := cfg.flags().BatchSize; got != 512 {
		t.Fatalf("flags().BatchSize = %d, want 512", got)
	}

	cfg, err = parseDSN("talignd://localhost:7171?batch=256")
	if err != nil {
		t.Fatalf("parseDSN remote: %v", err)
	}
	if cfg.remote == "" || cfg.batch != 256 {
		t.Fatalf("remote cfg = %+v, want remote host with batch 256", cfg)
	}

	// Without the option the default batch size stays in force.
	cfg, err = parseDSN("talign://")
	if err != nil {
		t.Fatalf("parseDSN: %v", err)
	}
	if got, want := cfg.flags().BatchSize, plan.DefaultFlags().BatchSize; got != want {
		t.Fatalf("default BatchSize = %d, want %d", got, want)
	}

	if _, err := parseDSN("talign://?batch=nope"); err == nil {
		t.Fatal("batch=nope parsed")
	}
	if _, err := parseDSN("talignd://localhost:7171?batch=-1"); err == nil {
		t.Fatal("batch=-1 parsed")
	}
	// Embedded-only options must be rejected, not swallowed, on remote
	// DSNs.
	_, err = parseDSN("talignd://localhost:7171?load=a=b.csv")
	if err == nil || !strings.Contains(err.Error(), "embedded") {
		t.Fatalf("remote load= error = %v, want embedded-only rejection", err)
	}
	// There is no parallelism option: every query runs at one width.
	_, err = parseDSN("talign://?j=2")
	if err == nil || !strings.Contains(err.Error(), `DSN option "j" is not known`) {
		t.Fatalf("j= error = %v, want unknown-option rejection", err)
	}
}

// TestDSNBatchAppliesRemote runs a query over the wire with batch=1 and
// checks results still match the default: the override changes batch
// framing, never rows.
func TestDSNBatchAppliesRemote(t *testing.T) {
	db := openRemoteTest(t)
	dbSmall, err := Open("talignd://" + strings.TrimPrefix(db.dsn, "http://") + "?batch=1")
	if err != nil {
		t.Fatalf("Open with batch=1: %v", err)
	}
	defer dbSmall.Close()
	const q = "SELECT n, Ts, Te FROM (r a NORMALIZE r b USING (n)) x ORDER BY n, Ts"
	ctx := context.Background()
	wr, err := db.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := dbSmall.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, got := collect(t, wr), collect(t, gr)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("batch=1 rows diverge: %v vs %v", got, want)
	}
}

// TestDSNResilienceOptions covers the timeout=, retry= and budget
// options introduced with the query-lifecycle resilience layer.
func TestDSNResilienceOptions(t *testing.T) {
	cfg, err := parseDSN("talign://mem?timeout=250ms&max-rows=1000&max-bytes=4096")
	if err != nil {
		t.Fatalf("parseDSN: %v", err)
	}
	if cfg.timeout != 250*time.Millisecond || cfg.maxRows != 1000 || cfg.maxBytes != 4096 {
		t.Fatalf("embedded resilience cfg = %+v", cfg)
	}

	cfg, err = parseDSN("talignd://localhost:7171?timeout=2s&retry=5")
	if err != nil {
		t.Fatalf("parseDSN remote: %v", err)
	}
	if cfg.timeout != 2*time.Second || cfg.retry != 5 {
		t.Fatalf("remote resilience cfg = %+v", cfg)
	}

	// retry defaults to "unset" so the client can distinguish retry=0
	// (explicitly disabled) from no option (use the default).
	cfg, err = parseDSN("talignd://localhost:7171")
	if err != nil {
		t.Fatalf("parseDSN: %v", err)
	}
	if cfg.retry != -1 {
		t.Fatalf("unset retry = %d, want -1", cfg.retry)
	}
	cfg, err = parseDSN("talignd://localhost:7171?retry=0")
	if err != nil {
		t.Fatalf("parseDSN: %v", err)
	}
	if cfg.retry != 0 {
		t.Fatalf("retry=0 parsed as %d", cfg.retry)
	}

	// Bad values and misplaced options are rejected, not swallowed.
	if _, err := parseDSN("talign://?timeout=soon"); err == nil {
		t.Fatal("timeout=soon parsed")
	}
	if _, err := parseDSN("talign://?timeout=-5s"); err == nil {
		t.Fatal("timeout=-5s parsed")
	}
	if _, err := parseDSN("talign://?retry=3"); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("embedded retry= error = %v, want remote-only rejection", err)
	}
	if _, err := parseDSN("talignd://localhost:7171?max-rows=10"); err == nil || !strings.Contains(err.Error(), "embedded") {
		t.Fatalf("remote max-rows= error = %v, want embedded-only rejection", err)
	}
}

// TestEmbeddedTimeoutAndBudgetApply proves the embedded DSN options
// actually reach the server core: a tight budget aborts with the
// "resource" code.
func TestEmbeddedTimeoutAndBudgetApply(t *testing.T) {
	db, err := Open("talign://demo?max-rows=1")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	rows, err := db.Query(context.Background(), "SELECT n, Ts, Te FROM r")
	if err == nil {
		for rows.Next() {
		}
		err = rows.Err()
		rows.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("got %v, want a resource budget abort", err)
	}
}
