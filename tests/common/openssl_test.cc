// The test binaries must load the libcrypto that CMake configured, which
// the library, fdd and the benchmarks link: a test that runs on another
// OpenSSL tests something other than what ships and what is measured.
#include <gtest/gtest.h>
#include <openssl/crypto.h>

#include <string>

namespace freqdedup {
namespace {

TEST(OpenSsl, RuntimeIsTheConfiguredVersion) {
  EXPECT_EQ(std::string(OpenSSL_version(OPENSSL_VERSION_STRING)),
            FDD_OPENSSL_VERSION)
      << "loaded " << OpenSSL_version(OPENSSL_VERSION);
}

}  // namespace
}  // namespace freqdedup
