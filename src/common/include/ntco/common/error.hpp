#pragma once

#include <stdexcept>
#include <string>

/// \file error.hpp
/// Error hierarchy for the ntco library.
///
/// All failures that cross a public API boundary are reported as exceptions
/// derived from ntco::Error. Precondition violations (programming errors)
/// throw ntco::ContractViolation via the NTCO_EXPECTS / NTCO_ENSURES macros
/// so that tests can assert on them.

namespace ntco {

/// Base class of every exception thrown by the ntco library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A precondition, postcondition, or invariant was violated.
class ContractViolation : public Error {
 public:
  explicit ContractViolation(const std::string& what) : Error(what) {}
};

/// A configuration value is out of its documented domain.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

}  // namespace ntco
