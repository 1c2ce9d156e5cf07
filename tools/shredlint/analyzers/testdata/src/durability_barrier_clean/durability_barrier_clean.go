// Negative suite for the durability analyzer's barrier rule: every
// recipe-journal call is followed by commitBarrier in the same function,
// and a package without commitBarrier is not held to the rule at all
// (see durability_clean, whose removeRecipe has none).
package shardstore

type backing interface {
	CommitRecipe(name string, r []string) error
	DeleteRecipe(name string) error
}

type store struct {
	backing backing
	barrier func() error
	recipes map[string][]string
}

func (s *store) commitBarrier() error {
	if s.barrier == nil {
		return nil
	}
	return s.barrier()
}

func (s *store) CommitRecipeTraced(name string, r []string) error {
	if err := s.backing.CommitRecipe(name, r); err != nil {
		return err
	}
	s.recipes[name] = r
	return s.commitBarrier()
}

// DeleteRecipeTraced makes the tombstone durable before releasing.
func (s *store) DeleteRecipeTraced(name string, refs []string) error {
	if err := s.backing.DeleteRecipe(name); err != nil {
		return err
	}
	delete(s.recipes, name)
	if err := s.commitBarrier(); err != nil {
		return err
	}
	return s.releaseRefs(refs)
}

// releaseRefs journals no recipe record; its own barrier is its business.
func (s *store) releaseRefs(refs []string) error { return s.commitBarrier() }

// PutBatch stages chunks and waits for nothing: durable at the commit.
func (s *store) PutBatch(chunks [][]byte) error { return nil }
