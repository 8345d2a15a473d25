package main

import (
	"strings"
	"testing"

	"htmgil"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring of the usage error; "" = accepted
		check   func(t *testing.T, c *cli)
	}{
		{name: "defaults", args: []string{"-e", "puts 1"}, check: func(t *testing.T, c *cli) {
			if c.opt.Mode != htmgil.ModeHTM || c.opt.Prof.Name != htmgil.ZEC12().Name || c.opt.Policy != "" || c.src != "puts 1" {
				t.Errorf("defaults = mode %v on %s, policy %q, src %q", c.opt.Mode, c.opt.Prof.Name, c.opt.Policy, c.src)
			}
		}},
		{name: "script file", args: []string{"-mode", "gil", "-machine", "xeon", "prog.rb"}, check: func(t *testing.T, c *cli) {
			if c.file != "prog.rb" || c.opt.Mode != htmgil.ModeGIL {
				t.Errorf("file %q, mode %v", c.file, c.opt.Mode)
			}
		}},
		{name: "txlen is sugar for fixed-N", args: []string{"-txlen", "16", "-e", "x"}, check: func(t *testing.T, c *cli) {
			if c.opt.Policy != "fixed-16" {
				t.Errorf("policy = %q, want fixed-16", c.opt.Policy)
			}
		}},
		{name: "txlen with policy", args: []string{"-txlen", "16", "-policy", "backoff", "-e", "x"}, wantErr: "not both"},
		{name: "negative txlen", args: []string{"-txlen", "-5", "-e", "x"}, wantErr: "at least 1"},
		{name: "zero txlen", args: []string{"-txlen", "0", "-e", "x"}, wantErr: "at least 1"},
		{name: "unknown policy", args: []string{"-policy", "nosuch", "-e", "x"}, wantErr: "unknown policy"},
		{name: "policy list", args: []string{"-policy", "list"}, check: func(t *testing.T, c *cli) {
			if !c.listOnly {
				t.Error("listOnly not set")
			}
		}},
		{name: "shards", args: []string{"-shards", "8", "-e", "x"}, check: func(t *testing.T, c *cli) {
			if c.opt.Shards != 8 {
				t.Errorf("shards = %d", c.opt.Shards)
			}
		}},
		{name: "too many shards", args: []string{"-shards", "100", "-e", "puts 1"}, wantErr: "-shards 100"},
		{name: "negative shards", args: []string{"-shards", "-1", "-e", "x"}, wantErr: "-shards -1"},
		{name: "shards outside htm mode", args: []string{"-mode", "gil", "-shards", "4", "-e", "x"}, wantErr: "needs -mode htm"},
		{name: "unknown mode", args: []string{"-mode", "jit", "-e", "x"}, wantErr: "unknown mode"},
		{name: "unknown machine", args: []string{"-machine", "power8", "-e", "x"}, wantErr: "unknown machine"},
		{name: "bad fault spec", args: []string{"-faults", "nonsense", "-e", "x"}, wantErr: "fault"},
		{name: "breaker brings the watchdog", args: []string{"-breaker", "-e", "x"}, check: func(t *testing.T, c *cli) {
			if !c.opt.Breaker || !c.opt.Watchdog {
				t.Error("breaker/watchdog not armed")
			}
		}},
		{name: "no program", args: nil, wantErr: "usage:"},
		{name: "undefined flag", args: []string{"-bogus"}, wantErr: "bogus"},
		{name: "help", args: []string{"-h"}, check: func(t *testing.T, c *cli) {
			if !strings.Contains(c.usage, "-shards") {
				t.Errorf("usage = %q", c.usage)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseArgs(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, c)
		})
	}
}
