package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// workload is one traffic mix: the keyspace preloaded before the window and
// what each of the two closed-loop connections sends. README.md records why
// each was chosen.
type workload struct {
	name    string
	keys    int     // keys preloaded before the window
	zipf    bool    // zipfian (s = zipfS) key choice; uniform otherwise
	putFrac float64 // share of Puts in a point mix; the rest are Gets
	scan    bool    // connection 0 scans, connection 1 batch-commits
}

var workloads = []workload{
	{name: "hot-read", keys: 4000, zipf: true, putFrac: 0.05},
	{name: "cold-mixed", keys: 200000, putFrac: 0.5},
	{name: "scan-window", keys: 100000, scan: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	conns       = 2   // closed-loop connections (workers in-process)
	zipfS       = 1.1 // zipfian exponent of hot-read
	valueSize   = 128
	keyLen      = len("bench-00000000")
	scanLen     = 100 // entries per scan: open, stream scanLen, close
	batchKeys   = 32  // scan-window batch: insert batchKeys fresh keys, delete the batchKeys oldest
	batcherConn = 1   // the scan-window connection that batch-commits
	seekSpace   = 100_000_000
)

// opKind is the type of one client operation.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	opBatch
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan", "batch"}

// op is one generated operation. For a point op id is the key; for a scan it
// is the plaintext key whose substitute the cursor seeks to; a batch carries
// no id (the batcher's own sequence numbers it).
type op struct {
	kind opKind
	id   uint32
}

// stream generates one connection's operations from the workload seed alone,
// so the live run and the in-process replay see the same sequence.
type stream struct {
	w    *workload
	conn int
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(w *workload, seed int64, conn int) *stream {
	s := &stream{w: w, conn: conn, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))}
	if w.zipf {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(w.keys-1))
	}
	return s
}

func (s *stream) next() op {
	if s.w.scan {
		if s.conn == 0 {
			return op{kind: opScan, id: uint32(s.rng.Int63n(seekSpace))}
		}
		return op{kind: opBatch}
	}
	kind := opGet
	if s.rng.Float64() < s.w.putFrac {
		kind = opPut
	}
	var id int
	if s.zipf != nil {
		id = int(s.zipf.Uint64())
	} else {
		id = s.rng.Intn(s.w.keys)
	}
	if kind == opPut {
		// Writes go only to keys this connection owns (id mod conns), so the
		// oracle knows the exact version every owned key must hold.
		id += s.conn - id%conns
		if id >= s.w.keys {
			id -= conns
		}
	}
	return op{kind: kind, id: uint32(id)}
}

// appendKey appends the plaintext key "bench-%08d" for id.
func appendKey(dst []byte, id uint32) []byte {
	dst = append(dst, "bench-"...)
	var d [8]byte
	for i := 7; i >= 0; i-- {
		d[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, d[:]...)
}

// Value layout: key id (4 bytes) | writer (1) | version (4) | filler |
// CRC-32C of everything before it (4). A value therefore names the key it
// belongs to, who wrote it and which of that writer's versions it is.
const (
	writerPreload = 0 // connection c writes as connWriter(c)
	crcOffset     = valueSize - 4
)

func connWriter(conn int) uint8 { return uint8(1 + conn) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func fillValue(v []byte, id uint32, writer uint8, version uint32) {
	binary.BigEndian.PutUint32(v[0:], id)
	v[4] = writer
	binary.BigEndian.PutUint32(v[5:], version)
	x := uint64(id)<<32 | uint64(version) | 1
	for i := 9; i < crcOffset; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	binary.BigEndian.PutUint32(v[crcOffset:], crc32.Checksum(v[:crcOffset], castagnoli))
}

type valueHeader struct {
	id      uint32
	writer  uint8
	version uint32
}

func parseValue(v []byte) (valueHeader, error) {
	if len(v) != valueSize {
		return valueHeader{}, fmt.Errorf("value is %d bytes, want %d", len(v), valueSize)
	}
	if crc32.Checksum(v[:crcOffset], castagnoli) != binary.BigEndian.Uint32(v[crcOffset:]) {
		return valueHeader{}, fmt.Errorf("value checksum mismatch")
	}
	return valueHeader{
		id:      binary.BigEndian.Uint32(v[0:]),
		writer:  v[4],
		version: binary.BigEndian.Uint32(v[5:]),
	}, nil
}
