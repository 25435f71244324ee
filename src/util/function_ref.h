#ifndef CHAMELEON_UTIL_FUNCTION_REF_H_
#define CHAMELEON_UTIL_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace chameleon {

/// A non-owning reference to a callable, for callbacks used only during
/// the call they are passed to: two pointers, never an allocation.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef>)
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : callable_(const_cast<void*>(static_cast<const void*>(&f))),
        thunk_([](void* callable, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(callable))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return thunk_(callable_, std::forward<Args>(args)...);
  }

 private:
  void* callable_;
  R (*thunk_)(void*, Args...);
};

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_FUNCTION_REF_H_
