package talign

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"talign/internal/plan"
)

// dsnConfig is the parsed form of an Open DSN.
type dsnConfig struct {
	// remote is the base URL of a talignd server; empty for embedded.
	remote string

	// batch overrides the executor batch size; it applies to both
	// backends (embedded planner flags, or per-request on the wire).
	batch int

	// timeout is the per-query deadline; it applies to both backends
	// (the embedded server core's deadline, or a client-side context
	// deadline on every remote request). Zero means no deadline.
	timeout time.Duration

	// retry is the number of retries (beyond the first attempt) for
	// remote statements that cannot reach a frame connection or that a
	// draining server refuses; remote-only. -1 means "not set, use default".
	retry int

	// Embedded options.
	demo     bool
	loads    [][2]string // name, csv path
	cache    int
	maxDOP   int
	maxRows  int
	maxBytes int
	analyze  bool
}

// parseDSN splits a DSN into backend kind and options.
func parseDSN(dsn string) (dsnConfig, error) {
	cfg := dsnConfig{analyze: true, retry: -1}
	u, err := url.Parse(dsn)
	if err != nil {
		return cfg, fmt.Errorf("talign: bad DSN %q: %v", dsn, err)
	}
	switch u.Scheme {
	case "talignd":
		if u.Host == "" {
			return cfg, fmt.Errorf("talign: DSN %q needs host:port", dsn)
		}
		cfg.remote = "http://" + u.Host
	case "http", "https":
		cfg.remote = strings.TrimRight(u.Scheme+"://"+u.Host, "/")
	case "talign":
		// Embedded; catalog and options below.
	default:
		return cfg, fmt.Errorf("talign: DSN %q: unknown scheme %q (use talign:// or talignd://)", dsn, u.Scheme)
	}
	if cfg.remote == "" {
		switch u.Host {
		case "", "mem":
		case "demo":
			cfg.demo = true
		default:
			return cfg, fmt.Errorf("talign: DSN %q: unknown embedded catalog %q (use \"demo\" or none)", dsn, u.Host)
		}
	}
	q := u.Query()
	for key, vals := range q {
		// Options shared by both backends.
		switch key {
		case "batch":
			if cfg.batch, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
			continue
		case "timeout":
			d, derr := time.ParseDuration(vals[len(vals)-1])
			if derr != nil || d < 0 {
				return cfg, fmt.Errorf("talign: DSN option timeout=%q is not a non-negative duration", vals[len(vals)-1])
			}
			cfg.timeout = d
			continue
		case "retry":
			// Retrying is a wire-level concern; an embedded query either
			// runs or fails deterministically, so retry= there is a
			// configuration mistake worth surfacing.
			if cfg.remote == "" {
				return cfg, fmt.Errorf("talign: DSN option %q applies to remote talignd:// only", key)
			}
			if cfg.retry, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
			continue
		}
		// Everything else configures the embedded engine; rejecting it
		// on remote DSNs beats silently ignoring a load= or cache= the
		// server can never honor.
		if cfg.remote != "" {
			return cfg, fmt.Errorf("talign: DSN option %q applies to embedded talign:// only", key)
		}
		switch key {
		case "load":
			for _, v := range vals {
				name, path, ok := strings.Cut(v, "=")
				if !ok || name == "" || path == "" {
					return cfg, fmt.Errorf("talign: DSN load option %q is not name=file.csv", v)
				}
				cfg.loads = append(cfg.loads, [2]string{name, path})
			}
		case "cache":
			if cfg.cache, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
		case "max-dop", "maxdop":
			if cfg.maxDOP, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
		case "max-rows", "maxrows":
			if cfg.maxRows, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
		case "max-bytes", "maxbytes":
			if cfg.maxBytes, err = dsnInt(key, vals); err != nil {
				return cfg, err
			}
		case "analyze":
			cfg.analyze = vals[len(vals)-1] != "0" && vals[len(vals)-1] != "false"
		default:
			return cfg, fmt.Errorf("talign: DSN option %q is not known", key)
		}
	}
	return cfg, nil
}

// dsnInt parses the last occurrence of a numeric DSN option.
func dsnInt(key string, vals []string) (int, error) {
	n, err := strconv.Atoi(vals[len(vals)-1])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("talign: DSN option %s=%q is not a non-negative integer", key, vals[len(vals)-1])
	}
	return n, nil
}

// flags builds the embedded planner flags for this DSN.
func (c dsnConfig) flags() plan.Flags {
	f := plan.DefaultFlags()
	if c.batch > 0 {
		f.BatchSize = c.batch
	}
	return f
}

// Process-unique session and statement names for the anonymous-handle
// convenience paths.
var (
	sessionSeq atomic.Uint64
	stmtSeq    atomic.Uint64
)

func nextSessionID() string {
	return fmt.Sprintf("talign-sess-%d", sessionSeq.Add(1))
}

func nextStmtName() string {
	return fmt.Sprintf("stmt-%d", stmtSeq.Add(1))
}
