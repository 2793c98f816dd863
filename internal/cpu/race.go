//go:build race

package cpu

const race = true
