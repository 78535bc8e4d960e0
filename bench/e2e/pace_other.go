//go:build !linux

package main

import "time"

// pacer puts one sender to sleep until a due time.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) close() {}

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}
