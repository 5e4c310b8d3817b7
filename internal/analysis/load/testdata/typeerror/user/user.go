// Package user imports typeerror and reads only its declarations, so a
// load of user alone checks Count's signature and not its body.
package user

import "example.com/typeerror"

var Counter = typeerror.Count
