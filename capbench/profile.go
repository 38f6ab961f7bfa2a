package main

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes. The standard library can write CPU profiles but
// not read them, and the benchmark may use nothing outside it, so this
// decodes just the fields the per-layer aggregation needs: each sample's
// count, its stack (leaf first, inlined frames expanded) and its pprof
// labels.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one decoded CPU-profile sample.
type profSample struct {
	count  int64             // samples (value[0])
	funcs  []string          // function names, leaf first
	labels map[string]string // pprof string labels
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples  []profSample
	periodNS int64 // sampling period
}

// pb walks one protobuf message.
type pb struct{ b []byte }

var errTruncated = errors.New("profile: truncated message")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type.
func (p *pb) next() (int, int, error) {
	k, err := p.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

func (p *pb) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(p.b)) < n {
		return nil, errTruncated
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out, nil
}

func (p *pb) skip(wire int) error {
	var err error
	switch wire {
	case 0:
		_, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return errTruncated
		}
		p.b = p.b[8:]
	case 2:
		_, err = p.bytes()
	case 5:
		if len(p.b) < 4 {
			return errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wire)
	}
	return err
}

// uints reads a repeated uint64 field in either packed (wire 2) or
// unpacked (wire 0) encoding, appending to dst.
func (p *pb) uints(wire int, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := p.varint()
		return append(dst, v), err
	}
	b, err := p.bytes()
	if err != nil {
		return dst, err
	}
	q := pb{b}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // string-table indexes of key, value
}

// parseCPUProfile decodes a gzip-compressed profile.proto.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
		period  uint64
	)
	p := pb{raw}
	for len(p.b) > 0 {
		field, wire, err := p.next()
		if err != nil {
			return nil, err
		}
		if field == 12 && wire == 0 {
			if period, err = p.varint(); err != nil {
				return nil, err
			}
			continue
		}
		if wire != 2 || (field != 2 && field != 4 && field != 5 && field != 6) {
			if err := p.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := p.bytes()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := parseSample(msg)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4:
			id, fns, err := parseLocation(msg)
			if err != nil {
				return nil, err
			}
			locs[id] = fns
		case 5:
			id, name, err := parseFunction(msg)
			if err != nil {
				return nil, err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	prof := &cpuProfile{periodNS: int64(period)}
	for _, rs := range samples {
		s := profSample{labels: map[string]string{}}
		if len(rs.values) > 0 {
			s.count = int64(rs.values[0])
		}
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				s.funcs = append(s.funcs, str(funcs[fid]))
			}
		}
		for _, kv := range rs.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		prof.samples = append(prof.samples, s)
	}
	return prof, nil
}

func parseSample(msg []byte) (rawSample, error) {
	var s rawSample
	p := pb{msg}
	for len(p.b) > 0 {
		field, wire, err := p.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = p.uints(wire, s.locs)
		case 2:
			s.values, err = p.uints(wire, s.values)
		case 3:
			var lb []byte
			if lb, err = p.bytes(); err == nil {
				var kv [2]uint64
				q := pb{lb}
				for len(q.b) > 0 && err == nil {
					var f, w int
					if f, w, err = q.next(); err != nil {
						break
					}
					switch f {
					case 1:
						kv[0], err = q.varint()
					case 2:
						kv[1], err = q.varint()
					default:
						err = q.skip(w)
					}
				}
				s.labels = append(s.labels, kv)
			}
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(msg []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	p := pb{msg}
	for len(p.b) > 0 {
		field, wire, err := p.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id, err = p.varint()
		case 4: // Line{function_id = 1, line = 2}
			var lb []byte
			if lb, err = p.bytes(); err == nil {
				q := pb{lb}
				for len(q.b) > 0 && err == nil {
					var f, w int
					if f, w, err = q.next(); err != nil {
						break
					}
					if f == 1 {
						var fid uint64
						if fid, err = q.varint(); err == nil {
							fns = append(fns, fid)
						}
					} else {
						err = q.skip(w)
					}
				}
			}
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return id, fns, nil
}

func parseFunction(msg []byte) (uint64, uint64, error) {
	var id, name uint64
	p := pb{msg}
	for len(p.b) > 0 {
		field, wire, err := p.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id, err = p.varint()
		case 2:
			name, err = p.varint()
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return id, name, nil
}

// total returns the profile's sample count.
func (p *cpuProfile) total() int64 {
	var n int64
	for _, s := range p.samples {
		n += s.count
	}
	return n
}

// unlabelled names the bucket of samples that carry no value for the
// label key: runtime background work (GC workers, the scavenger, timer
// and netpoll threads) that no benchmark call started.
const unlabelled = "unlabelled"

// byLabel sums sample counts by the value of label key. Every sample
// lands in exactly one bucket, so the buckets add up to total().
func (p *cpuProfile) byLabel(key string) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		v, ok := s.labels[key]
		if !ok || v == "" {
			v = unlabelled
		}
		out[v] += s.count
	}
	return out
}

// modulePrefix is the import-path prefix of the program under test.
const modulePrefix = "mpdash"

// packageOf returns the import path of the package a function name
// belongs to ("mpdash/internal/netmp.(*Fetcher).FetchChunk.func1" →
// "mpdash/internal/netmp").
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// otherPackage names the bucket of samples charged to no program
// package: the runtime's own threads and the benchmark's code.
const otherPackage = "other"

// byPackage charges each sample to the program package nearest its
// leaf: the first frame, walking from the leaf, whose package lies in
// the mpdash module. Standard-library and runtime frames above it (a
// syscall, a map insert, an allocation) are charged to the program
// package that made the call. Package names are shortened to their last
// element ("netmp", "sim"); the root package is "mpdash".
func (p *cpuProfile) byPackage() map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		pkg := otherPackage
		for _, fn := range s.funcs {
			path := packageOf(fn)
			if path == "main" {
				break // the benchmark's own code
			}
			if path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/") {
				pkg = path[strings.LastIndexByte(path, '/')+1:]
				break
			}
		}
		out[pkg] += s.count
	}
	return out
}
