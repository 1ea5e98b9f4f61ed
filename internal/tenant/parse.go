package tenant

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dfsqos/internal/ids"
	"dfsqos/internal/units"
)

// ParseQuotas parses the rmd -tenant-quotas flag grammar: a
// comma-separated list of per-tenant entries
//
//	<tenant>=<bandwidth>:<bytes>:<weight>
//
// where <tenant> is the positive numeric tenant ID, <bandwidth> is a
// units.ParseRate rate ("4Mbps", "500kb/s", bare bytes/sec), <bytes> is
// a units.ParseSize size ("1GB", bare bytes) and <weight> is a float.
// Trailing parts may be omitted and any part may be empty; an absent
// bandwidth or byte cap means NoLimit (uncapped), an absent weight means
// DefaultWeight. A literal "0" is a real zero-allowance cap, not
// "unset". Examples:
//
//	1=4Mbps:1GB:2        tenant 1: 4 Mbps, 1 GB, double weight
//	2=2Mbps              tenant 2: 2 Mbps, unlimited bytes, weight 1
//	3=::0.5              tenant 3: uncapped, half weight
//	4=0                  tenant 4: zero bandwidth allowance (denied)
func ParseQuotas(spec string) (map[ids.TenantID]Quota, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := make(map[ids.TenantID]Quota)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("tenant: quota entry %q: want <tenant>=<bw>:<bytes>:<weight>", entry)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(id), 10, 32)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("tenant: quota entry %q: bad tenant id %q", entry, id)
		}
		t := ids.TenantID(n)
		if _, dup := out[t]; dup {
			return nil, fmt.Errorf("tenant: quota entry %q: duplicate tenant %v", entry, t)
		}
		q := Unlimited
		parts := strings.SplitN(rest, ":", 3)
		if len(parts) > 0 && strings.TrimSpace(parts[0]) != "" {
			bw, err := units.ParseRate(parts[0])
			if err != nil {
				return nil, fmt.Errorf("tenant: quota entry %q: %w", entry, err)
			}
			if bw < 0 {
				return nil, fmt.Errorf("tenant: quota entry %q: negative bandwidth", entry)
			}
			q.Bandwidth = bw
		}
		if len(parts) > 1 && strings.TrimSpace(parts[1]) != "" {
			sz, err := units.ParseSize(parts[1])
			if err != nil {
				return nil, fmt.Errorf("tenant: quota entry %q: %w", entry, err)
			}
			if sz < 0 {
				return nil, fmt.Errorf("tenant: quota entry %q: negative byte cap", entry)
			}
			q.Bytes = sz.Bytes()
		}
		if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
			w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil || !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("tenant: quota entry %q: bad weight %q", entry, parts[2])
			}
			q.Weight = w
		}
		out[t] = q
	}
	return out, nil
}
