package sim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// SpecField binds one float-valued key of a fault spec to the field it
// sets. A spec type lists its fields in a fixed order, which is also the
// order FormatSpec renders them in.
type SpecField struct {
	Key string
	Val *float64
}

// ParseSpec parses the fault-spec grammar shared by the node and cluster
// injectors: a comma-separated list of key=value pairs, e.g.
// "seed=7,drop=0.2". Keys are case-insensitive; seed is an unsigned
// integer stored in *seed, every other key must name one of fields and
// takes a float. An empty string (and "off") sets nothing. Errors are
// prefixed with pkg. Range checks are the caller's Validate.
func ParseSpec(pkg, str string, seed *uint64, fields []SpecField) error {
	str = strings.TrimSpace(str)
	if str == "" || str == "off" {
		return nil
	}
	for _, kv := range strings.Split(str, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", pkg, kv)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if k == "seed" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("%s: seed: %w", pkg, err)
			}
			*seed = n
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", pkg, k, err)
		}
		i := slices.IndexFunc(fields, func(sf SpecField) bool { return sf.Key == k })
		if i < 0 {
			return fmt.Errorf("%s: unknown key %q", pkg, k)
		}
		*fields[i].Val = f
	}
	return nil
}

// FormatSpec renders a spec in ParseSpec's format: the seed first, then
// fields in table order, omitting zero values; "off" when nothing is set.
func FormatSpec(seed uint64, fields []SpecField) string {
	var parts []string
	if seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", seed))
	}
	for _, f := range fields {
		if *f.Val != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", f.Key, *f.Val))
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}
