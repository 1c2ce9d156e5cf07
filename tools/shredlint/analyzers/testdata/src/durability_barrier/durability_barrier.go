// Positive suite for the durability analyzer's barrier rule: a store in
// front of a group-commit backing (marked by declaring commitBarrier)
// whose recipe commit and delete report success without waiting for the
// sync round that covers the record they journaled.
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

// CommitRecipeTraced acks as soon as the record is written through.
func (s *store) CommitRecipeTraced(name string, r []string) error {
	if err := s.backing.CommitRecipe(name, r); err != nil { // want `CommitRecipe journals a record but no commitBarrier follows it in CommitRecipeTraced`
		return err
	}
	s.recipes[name] = r
	return nil
}

// DeleteRecipeTraced waits for the barrier, but before the tombstone is
// journaled: the wait covers nothing.
func (s *store) DeleteRecipeTraced(name string) error {
	if err := s.commitBarrier(); err != nil {
		return err
	}
	if err := s.backing.DeleteRecipe(name); err != nil { // want `DeleteRecipe journals a record but no commitBarrier follows it in DeleteRecipeTraced`
		return err
	}
	delete(s.recipes, name)
	return nil
}

// CommitRecipe only delegates; the callee owns the barrier.
func (s *store) CommitRecipe(name string, r []string) error {
	return s.CommitRecipeTraced(name, r)
}
