package prefetch

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the "family:key=val,..." argument parsing behind the
// registry's parameterized scheme names, plus the builders for the
// families defined in this package. The surface is deliberately small:
// every key maps onto a field of the scheme's exported config struct,
// and unknown keys fail with the valid key list so sweep specs written
// by hand are self-correcting.

// kvArgs parses a "key=val,key=val" list, calling apply per pair.
func kvArgs(args string, apply func(key, val string) error) error {
	if strings.TrimSpace(args) == "" {
		return fmt.Errorf("empty parameter list (want key=val,...)")
	}
	for _, part := range strings.Split(args, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("parameter %q is not of the form key=val", part)
		}
		if err := apply(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return err
		}
	}
	return nil
}

// maxParam bounds every integer scheme parameter. Parameters size the
// tables New allocates, and scheme names arrive in job and sweep specs,
// so an unbounded one would let a request allocate gigabytes.
const maxParam = 1 << 16

func kvInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, val)
	}
	if n > maxParam {
		return 0, fmt.Errorf("parameter %s=%d above %d", key, n, maxParam)
	}
	return n, nil
}

func kvBool(key, val string) (bool, error) {
	b, err := strconv.ParseBool(val)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q is not a boolean", key, val)
	}
	return b, nil
}

func buildDiscontinuity(args string) (Prefetcher, error) {
	cfg := DefaultDiscontinuityConfig()
	err := kvArgs(args, func(k, v string) error {
		switch k {
		case "table":
			n, err := kvInt(k, v)
			cfg.TableEntries = n
			return err
		case "ahead":
			n, err := kvInt(k, v)
			cfg.PrefetchAhead = n
			return err
		case "ctrmax":
			n, err := kvInt(k, v)
			if err == nil && (n < 0 || n > 255) {
				return fmt.Errorf("parameter ctrmax=%d out of range 0..255", n)
			}
			cfg.CounterMax = uint8(n)
			return err
		case "nocounter":
			b, err := kvBool(k, v)
			cfg.NoCounter = b
			return err
		case "confidence":
			b, err := kvBool(k, v)
			cfg.ConfidenceFilter = b
			return err
		case "confthresh":
			n, err := kvInt(k, v)
			if err == nil && (n < 0 || n > 255) {
				return fmt.Errorf("parameter confthresh=%d out of range 0..255", n)
			}
			cfg.ConfidenceThreshold = uint8(n)
			return err
		case "confmax":
			n, err := kvInt(k, v)
			if err == nil && (n < 0 || n > 255) {
				return fmt.Errorf("parameter confmax=%d out of range 0..255", n)
			}
			cfg.ConfidenceMax = uint8(n)
			return err
		default:
			return fmt.Errorf("unknown discontinuity parameter %q (valid: table, ahead, ctrmax, nocounter, confidence, confthresh, confmax)", k)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewDiscontinuity(cfg), nil
}

func buildStreams(args string) (Prefetcher, error) {
	n, depth := 4, 4
	err := kvArgs(args, func(k, v string) error {
		switch k {
		case "n":
			var err error
			n, err = kvInt(k, v)
			return err
		case "depth":
			var err error
			depth, err = kvInt(k, v)
			return err
		default:
			return fmt.Errorf("unknown streams parameter %q (valid: n, depth)", k)
		}
	})
	if err != nil {
		return nil, err
	}
	if n < 1 || depth < 1 {
		return nil, fmt.Errorf("streams need n >= 1 and depth >= 1 (got n=%d depth=%d)", n, depth)
	}
	return NewStreams(n, depth), nil
}

func buildLookahead(args string) (Prefetcher, error) {
	dist := 4
	err := kvArgs(args, func(k, v string) error {
		switch k {
		case "n", "dist":
			var err error
			dist, err = kvInt(k, v)
			return err
		default:
			return fmt.Errorf("unknown lookahead parameter %q (valid: n, dist)", k)
		}
	})
	if err != nil {
		return nil, err
	}
	if dist < 1 {
		return nil, fmt.Errorf("lookahead distance %d must be >= 1", dist)
	}
	return NewLookahead(dist), nil
}

func buildMANA(args string) (Prefetcher, error) {
	cfg := DefaultMANAConfig()
	err := kvArgs(args, func(k, v string) error {
		switch k {
		case "triggers":
			n, err := kvInt(k, v)
			cfg.TriggerEntries = n
			return err
		case "records":
			n, err := kvInt(k, v)
			cfg.RecordEntries = n
			return err
		case "region":
			n, err := kvInt(k, v)
			cfg.RegionLines = n
			return err
		default:
			return fmt.Errorf("unknown mana parameter %q (valid: triggers, records, region)", k)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewMANA(cfg), nil
}

func buildProgMap(args string) (Prefetcher, error) {
	cfg := DefaultProgMapConfig()
	err := kvArgs(args, func(k, v string) error {
		switch k {
		case "entries":
			n, err := kvInt(k, v)
			cfg.Entries = n
			return err
		case "depth":
			n, err := kvInt(k, v)
			cfg.Depth = n
			return err
		default:
			return fmt.Errorf("unknown progmap parameter %q (valid: entries, depth)", k)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewProgMap(cfg), nil
}
