package runcfg

import (
	"flag"

	"twolm/internal/jobspec"
)

// RegisterJob installs the -job flag: a path to a versioned jobspec
// JSON file that bypasses the loose flag surface entirely. Only
// cmd/repro registers it; cmd/simd takes the same document over HTTP.
func (c *Common) RegisterJob(fs *flag.FlagSet) {
	fs.StringVar(&c.Job, "job", c.Job,
		"path to a jobspec JSON file; bypasses the workload flags so one spec file reproduces the run across repro and simd")
}

// LoadJob strictly decodes and validates the -job file. It returns
// (nil, nil) when the flag was not given, so callers branch with one
// check.
func (c *Common) LoadJob() (*jobspec.Spec, error) {
	if c.Job == "" {
		return nil, nil
	}
	return jobspec.Load(c.Job)
}
