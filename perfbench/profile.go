package main

// CPU-profile folding. The traced pass records a runtime/pprof CPU
// profile; this file decodes its gzipped protobuf (profile.proto) with
// the standard library alone and folds self time by package. Only
// samples carrying the run-phase label count, so set-up and the
// benchmark's own bookkeeping stay out of the per-layer shares.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerPkgs are the module's packages a benchmark run executes, plus the
// Go runtime; every other package folds into "other".
var layerPkgs = []string{
	"app", "core", "demux", "fault", "ipv4", "kernel", "mbuf", "metrics",
	"netsim", "nic", "pkt", "pop", "sim", "smp", "socket", "tcp", "topo",
	"runtime", "other",
}

// layerOf maps a function symbol to its layer name.
func layerOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "lrp/internal/"):
		name := strings.TrimPrefix(pkg, "lrp/internal/")
		for _, l := range layerPkgs {
			if l == name {
				return l
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// protoMsg is a decoded protobuf message: field number -> raw values
// (varints as uint64, length-delimited fields as byte slices).
type protoMsg map[int][]any

func decodeProto(b []byte) (protoMsg, error) {
	m := protoMsg{}
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			m[field] = append(m[field], v)
			b = b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			m[field] = append(m[field], b[n:n+int(l)])
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return m, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ints returns a repeated integer field, packed or not.
func (m protoMsg) ints(field int) []uint64 {
	var out []uint64
	for _, v := range m[field] {
		switch v := v.(type) {
		case uint64:
			out = append(out, v)
		case []byte:
			for len(v) > 0 {
				x, n := uvarint(v)
				if n <= 0 {
					return out
				}
				out = append(out, x)
				v = v[n:]
			}
		}
	}
	return out
}

func (m protoMsg) int(field int) uint64 {
	if v := m.ints(field); len(v) > 0 {
		return v[0]
	}
	return 0
}

func (m protoMsg) msgs(field int) ([]protoMsg, error) {
	var out []protoMsg
	for _, v := range m[field] {
		b, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("field %d is not a message", field)
		}
		sub, err := decodeProto(b)
		if err != nil {
			return nil, err
		}
		out = append(out, sub)
	}
	return out, nil
}

// foldProfile returns the CPU nanoseconds of self time per layer over
// the samples labeled key=value, and their total.
func foldProfile(gz []byte, key, value string) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProto(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	for _, v := range p[6] {
		b, _ := v.([]byte)
		strs = append(strs, string(b))
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	funcs := map[uint64]string{}
	fs, err := p.msgs(5)
	if err != nil {
		return nil, 0, err
	}
	for _, f := range fs {
		funcs[f.int(1)] = str(f.int(2))
	}
	// leaf maps a location to the layer of its innermost function (the
	// first line; later lines are the callers it was inlined into).
	leaf := map[uint64]string{}
	locs, err := p.msgs(4)
	if err != nil {
		return nil, 0, err
	}
	for _, l := range locs {
		lines, err := l.msgs(4)
		if err != nil {
			return nil, 0, err
		}
		name := ""
		if len(lines) > 0 {
			name = funcs[lines[0].int(1)]
		}
		leaf[l.int(1)] = layerOf(name)
	}
	samples, err := p.msgs(2)
	if err != nil {
		return nil, 0, err
	}
	self := map[string]float64{}
	var total float64
	for _, s := range samples {
		labels, err := s.msgs(3)
		if err != nil {
			return nil, 0, err
		}
		match := false
		for _, lb := range labels {
			if str(lb.int(1)) == key && str(lb.int(2)) == value {
				match = true
			}
		}
		vals, ids := s.ints(2), s.ints(1)
		if !match || len(vals) < 2 || len(ids) == 0 {
			continue
		}
		ns := float64(vals[1]) // sample types: samples/count, cpu/nanoseconds
		self[leaf[ids[0]]] += ns
		total += ns
	}
	return self, total, nil
}
