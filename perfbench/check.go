package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// model tracks every payload written to a keyspace so reads can be
// checked. Versions are issued per key; version 1 is the preload. Each
// writer records the last version it had acknowledged for every key. A
// writer issues its writes one after another, so after all writers stop
// the stored value must be the last acknowledged write of one of them:
// any other value is a lost or torn write.
type model struct {
	valueSize int
	issued    []atomic.Uint64
	last      [][]uint64 // [writer][key], 0 = never written by that writer
}

func newModel(keys, writers, valueSize int) *model {
	m := &model{valueSize: valueSize, issued: make([]atomic.Uint64, keys), last: make([][]uint64, writers)}
	for w := range m.last {
		m.last[w] = make([]uint64, keys)
	}
	return m
}

// preloaded marks every key as holding version 1.
func (m *model) preloaded() {
	for i := range m.issued {
		m.issued[i].Store(1)
	}
}

// issue returns the version for a new write of key into buf.
func (m *model) issue(key uint64, buf []byte) uint64 {
	v := m.issued[key].Add(1)
	fillPayload(buf, key, v)
	return v
}

// acked records writer w's acknowledged write. Only w writes m.last[w].
func (m *model) acked(w int, key, ver uint64) { m.last[w][key] = ver }

// decode checks that b is a well-formed payload written for key and
// returns its version.
func (m *model) decode(key uint64, b []byte) (uint64, error) {
	if len(b) < m.valueSize || len(b) < payloadHeader {
		return 0, fmt.Errorf("key %d: value is %d bytes, want %d", key, len(b), m.valueSize)
	}
	b = b[:m.valueSize]
	if k := binary.LittleEndian.Uint64(b); k != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, k)
	}
	ver := binary.LittleEndian.Uint64(b[8:])
	want := make([]byte, m.valueSize)
	fillPayload(want, key, ver)
	if !bytes.Equal(b, want) {
		return 0, fmt.Errorf("key %d: value body does not match version %d", key, ver)
	}
	return ver, nil
}

// checkRead accepts any payload that was ever written for key.
func (m *model) checkRead(key uint64, b []byte, found bool) error {
	if !found {
		return fmt.Errorf("key %d: not found", key)
	}
	ver, err := m.decode(key, b)
	if err != nil {
		return err
	}
	if ver == 0 || ver > m.issued[key].Load() {
		return fmt.Errorf("key %d: version %d was never written", key, ver)
	}
	return nil
}

// checkFinal is the read-back after all writers stopped: the value must be
// the last acknowledged write of some writer (or the preload if no writer
// touched the key).
func (m *model) checkFinal(key uint64, b []byte, found bool) error {
	if !found {
		return fmt.Errorf("key %d: acknowledged write lost (key not found)", key)
	}
	ver, err := m.decode(key, b)
	if err != nil {
		return err
	}
	touched := false
	for w := range m.last {
		if v := m.last[w][key]; v != 0 {
			touched = true
			if v == ver {
				return nil
			}
		}
	}
	if !touched && ver == 1 {
		return nil
	}
	return fmt.Errorf("key %d: read version %d, not the last acknowledged write of any writer", key, ver)
}
