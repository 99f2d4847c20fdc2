// Package eta2 stands in for the serving package after a refactor that
// renamed applyRecord without telling replaypurity: every other
// name-keyed root is declared, the renamed one is a finding.
package eta2 // want `replay root applyRecord is not declared in package eta2`

func applyEvent()    {}
func restoreServer() {}

// applyShippedRecord is what applyRecord was renamed to.
func applyShippedRecord() {}
