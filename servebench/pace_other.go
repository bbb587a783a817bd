//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep off Linux; the reported generator
// lateness shows how coarse it is.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() error { return nil }
